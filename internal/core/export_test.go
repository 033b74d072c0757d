package core

import (
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
)

func commKeyOf(mod *ir.Module, sched Scheduler, w, d int, copts comm.Options) commKey {
	return commKey{
		sk:   schedKey{fp: mod.Fingerprint(), config: schedulerConfig(sched), w: w, d: d},
		comm: copts,
	}
}

// CachedCommEntry returns the comm entry c holds for leaf mod under
// sched on a Multi-SIMD(w,d) machine with movement options copts, as
// (zero-comm length, cycles, global moves, local moves): the engine's
// side of TestScheduleLeafMatchesEngine.
func CachedCommEntry(c *EvalCache, mod *ir.Module, sched Scheduler, w, d int, copts comm.Options) ([4]int64, bool) {
	ce, ok := c.commResult(commKeyOf(mod, sched, w, d, copts), &CacheRecorder{})
	return [4]int64{ce.zeroLen, ce.cycles, ce.globals, ce.locals}, ok
}

// PutCommEntry stores e, in CachedCommEntry's order, as that entry: a
// test's way to plant a wrong characterization for the audit to find.
func PutCommEntry(c *EvalCache, mod *ir.Module, sched Scheduler, w, d int, copts comm.Options, e [4]int64) {
	c.putCommResult(commKeyOf(mod, sched, w, d, copts), commEntry{zeroLen: e[0], cycles: e[1], globals: e[2], locals: e[3]})
}

// SchedLayerValues returns every value c's schedule layer holds in
// memory, in no particular order.
func SchedLayerValues(c *EvalCache) []any {
	var out []any
	for _, st := range c.stripes {
		st.mu.Lock()
		for k, n := range st.entries {
			if k.layer == layerSched {
				out = append(out, n.val)
			}
		}
		st.mu.Unlock()
	}
	return out
}
