package reuse

// Saved returns the number of local slots eliminated.
func (s Stats) Saved() int { return s.LocalsBefore - s.LocalsAfter }
