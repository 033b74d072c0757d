package verify

import (
	"hash/fnv"

	"github.com/scaffold-go/multisimd/internal/schedule"
)

// ScheduleDigest returns a stable FNV-1a fingerprint of a schedule's
// observable structure: machine shape (k, d) plus every (step, region,
// op) assignment in order, k regions per step. Two schedules digest
// equally iff they place the same ops in the same regions at the same
// timesteps — the bit-identity the refactoring corpus tests pin across
// scheduler rewrites.
func ScheduleDigest(s *schedule.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(uint64(s.K))
	w(uint64(s.D))
	w(uint64(len(s.Steps)))
	for t := range s.Steps {
		w(uint64(s.K))
		for r := 0; r < s.K; r++ {
			ops := s.Region(t, r)
			w(uint64(r))
			w(uint64(len(ops)))
			for _, op := range ops {
				w(uint64(op))
			}
		}
	}
	return h.Sum64()
}
