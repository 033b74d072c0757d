package dag

// Roots returns nodes with no predecessors, i.e. the initial ready set.
func (g *Graph) Roots() []int32 {
	var roots []int32
	for i := 0; i < g.Len(); i++ {
		if g.predOff[i] == g.predOff[i+1] {
			roots = append(roots, int32(i))
		}
	}
	return roots
}
