package main

import (
	"sync/atomic"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/symexec"
	"paramdbt/internal/tcg"
)

// backendTimes accumulates wall time spent inside the backend's public
// methods. The counters are atomic because serve-mix calls the backend
// from the service's translation workers and both clients at once.
type backendTimes struct {
	lower, finalize, peephole, eval atomic.Int64 // nanoseconds
}

// timedBackend decorates a backend.Backend with call timers. Name and ID
// come from the embedded backend, so rule keys and code-cache shards are
// the same as the undecorated backend's.
type timedBackend struct {
	backend.Backend
	t *backendTimes
}

// timedOptimizer additionally forwards backend.Optimizer, so the engine
// still takes the peephole path for backends that provide one.
type timedOptimizer struct {
	*timedBackend
	opt backend.Optimizer
}

// timeBackend wraps be so its Lower, Finalize, EvalHost and (when
// present) OptimizeBlock calls are timed into t.
func timeBackend(be backend.Backend, t *backendTimes) backend.Backend {
	tb := &timedBackend{Backend: be, t: t}
	if opt, ok := be.(backend.Optimizer); ok {
		return &timedOptimizer{timedBackend: tb, opt: opt}
	}
	return tb
}

func (b *timedBackend) Lower(a *host.Asm, g *tcg.Gen, mapf func(guest.Reg) host.Operand, pool []host.Reg) error {
	t0 := time.Now()
	err := b.Backend.Lower(a, g, mapf, pool)
	b.t.lower.Add(int64(time.Since(t0)))
	return err
}

func (b *timedBackend) Finalize(a *host.Asm) (*host.Block, error) {
	t0 := time.Now()
	blk, err := b.Backend.Finalize(a)
	b.t.finalize.Add(int64(time.Since(t0)))
	return blk, err
}

// EvalHost is only reached through the translation validator during a
// benchmark run, so its time is the validator's symbolic host evaluation.
func (b *timedBackend) EvalHost(seq []host.Inst, init map[host.Reg]*symexec.Expr, hook symexec.ImmHook) (*symexec.HState, error) {
	t0 := time.Now()
	hs, err := b.Backend.EvalHost(seq, init, hook)
	b.t.eval.Add(int64(time.Since(t0)))
	return hs, err
}

func (b *timedOptimizer) OptimizeBlock(blk *host.Block) (*host.Block, backend.OptStats, error) {
	t0 := time.Now()
	out, st, err := b.opt.OptimizeBlock(blk)
	b.t.peephole.Add(int64(time.Since(t0)))
	return out, st, err
}
