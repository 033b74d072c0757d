package core

import (
	"context"
	"fmt"
	"reflect"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// rederive re-derives every prepared leaf at each of widths from
// scratch on the worker pool: the once-materialized body, the scheduler
// (which logs nothing: these reschedules are not the evaluation's
// decisions) and the full comm.Analyze, move lists included. No cache is read or written. fn receives each point as
// (leaf index, width index); BuildReport profiles them and audit checks
// them.
func (pp *prepared) rederive(ctx context.Context, opts EvalOptions, widths []int, fn func(i, wi int, l *Leaf) error) error {
	sched := opts.scheduler()
	nW := len(widths)
	return runTasks(ctx, len(pp.leaves)*nW, opts.workers(), func(_, t int) error {
		pl := pp.leaves[t/nW]
		mat, g, err := pp.graph(pl.body)
		var l *Leaf
		if err == nil {
			l, err = scheduleBody(mat, g, sched, widths[t%nW], opts.D, opts.Comm)
		}
		if err == nil {
			err = fn(t/nW, t%nW, l)
		}
		if err != nil {
			return fmt.Errorf("core: module %s: %w", pl.name, err)
		}
		return nil
	})
}

// audit checks an evaluation whose Metrics are m against a re-derivation
// of everything it was served, wherever the cache got it from: this run,
// an earlier one, a disk store or a preload. Every reachable leaf is
// re-derived at every width (rederive); its schedule and move list must
// pass the legality oracle, and its zero-comm length, cycles, moves and
// critical path must equal what the cache holds under the engine's keys
// (read through a throwaway recorder, so this run's cache traffic stays
// as it was; an entry evicted since is not compared). Then the
// re-derived entries alone must reproduce m: composing from a private
// cache that holds only them may miss nothing and must return identical
// Metrics. Every failure counts a verify.rejections and marks the trace,
// and a served entry that differs from its re-derivation is replaced by
// it, in memory and in the read-write store, so the next evaluation is
// served the re-derived value. A rejection stops the audit, so entries
// of points it had not reached stay as they are until the next one.
func (e *engine) audit(p *ir.Program, m *Metrics) error {
	sp := e.eo.tr.Span("engine", "audit")
	defer sp.End()
	reject := func(what string, err error) error {
		e.eo.verifyRej.Inc()
		e.eo.tr.Instant("verify", "rejection: "+what, 0)
		return err
	}
	fresh := NewEvalCache()
	discard := &CacheRecorder{}
	err := e.pp.rederive(e.ctx, e.opts, e.widths, func(i, wi int, l *Leaf) error {
		pl, w := e.pp.leaves[i], e.widths[wi]
		if err := verify.Full(l.S, l.G, l.Comm, e.comm); err != nil {
			return reject(pl.name, fmt.Errorf("width %d: %w", w, err))
		}
		ce := entryOf(l.S.Length(), l.Comm.Summary())
		ck := commKey{sk: schedKey{fp: pl.fp, config: e.cfg, w: w, d: e.opts.D}, comm: e.comm}
		fresh.putCommResult(ck, ce)
		type field struct {
			name          string
			served, again int64
		}
		var fields []field
		if got, ok := e.cache.commResult(ck, discard); ok {
			if got != ce {
				e.cache.replace(ck.memKey(), ce)
			}
			fields = []field{{"zeroLen", got.zeroLen, ce.zeroLen}, {"cycles", got.cycles, ce.cycles},
				{"globals", got.globals, ce.globals}, {"locals", got.locals, ce.locals}}
		}
		if wi == 0 {
			cp := int64(l.G.CriticalPath())
			fresh.putCriticalPath(pl.fp, cp)
			if got, ok := e.cache.criticalPath(pl.fp, discard); ok {
				if got != cp {
					e.cache.replace(cpKey(pl.fp), cp)
				}
				fields = append(fields, field{"critical path", got, cp})
			}
		}
		for _, f := range fields {
			if f.served != f.again {
				return reject(pl.name, fmt.Errorf("width %d: served %s %d, re-derived %d", w, f.name, f.served, f.again))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	opts := e.opts
	opts.Obs, opts.Verify = nil, false
	opts.Cache, opts.CacheStats = fresh, &CacheRecorder{}
	ms, _, err := evaluate(e.ctx, p, e.pp, nil, []EvalOptions{opts})
	if err != nil {
		return err
	}
	again := ms[0]
	if st := opts.CacheStats.Stats(); st.CommMisses != 0 || st.CPMisses != 0 {
		return reject("recompose", fmt.Errorf("core: audit: recomposing from re-derived entries missed %d comm and %d critical-path entries",
			st.CommMisses, st.CPMisses))
	}
	if !reflect.DeepEqual(again, m) {
		return reject("recompose", fmt.Errorf("core: audit: served metrics %+v, re-derived %+v", *m, *again))
	}
	return nil
}
