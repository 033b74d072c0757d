package core

import (
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
)

// CachedCommEntry returns the comm entry c holds for leaf mod under
// sched on a Multi-SIMD(w,d) machine with movement options copts, as
// (zero-comm length, cycles, global moves, local moves): the engine's
// side of TestScheduleLeafMatchesEngine.
func CachedCommEntry(c *EvalCache, mod *ir.Module, sched Scheduler, w, d int, copts comm.Options) ([4]int64, bool) {
	ck := commKey{
		sk:   schedKey{fp: mod.Fingerprint(), config: schedulerConfig(sched), w: w, d: d},
		comm: copts,
	}
	ce, ok := c.commResult(ck, &CacheRecorder{})
	return [4]int64{ce.zeroLen, ce.cycles, ce.globals, ce.locals}, ok
}
