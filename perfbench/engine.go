package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/workload"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

// Step limits far above any workload's needs (runaway protection only).
const (
	maxGuestSteps = 4_000_000_000
	maxHostSteps  = 4_000_000_000
)

// engineWorkload runs fresh single-tenant engines one at a time, one
// sequential client: paper-loo, long-run and risc-validate.
type engineWorkload struct {
	scale int
	// suites is how many suites of each program one run uses; more
	// programs in a run steady its figures across seeds.
	suites  int
	progs   []string // programs run from each suite; nil runs all twelve
	backend string
	// superblocks turns on hot-trace formation (HotThreshold 4,
	// TraceBudget 12, default background formation).
	superblocks bool
	peephole    bool
	// measureBase runs the learned-rules-only arm in every round (the
	// paper's own comparison); otherwise it runs once per program before
	// measuring, only to give speedup_vs_base its denominator.
	measureBase bool
	// deterministic workloads must repeat every counter exactly, run to
	// run and between traced and untraced rounds. Background superblock
	// formation makes long-run's counters other than guest instructions
	// vary.
	deterministic bool
}

var (
	paperLOO = engineWorkload{scale: 1, suites: 4, backend: "x86", measureBase: true, deterministic: true}
	longRun  = engineWorkload{scale: 8, suites: 8, progs: []string{"gcc", "mcf", "libquantum", "h264ref"},
		backend: "x86", superblocks: true}
	riscValidate = engineWorkload{scale: 1, suites: 4, backend: "risc", peephole: true, deterministic: true}
)

// config is the engine configuration of one arm: learned rules only
// (para false) or full parameterization with flag delegation.
func (w engineWorkload) config(rules *rule.Store, para bool, be backend.Backend) dbt.Config {
	cfg := dbt.Config{Rules: rules, Backend: be, DelegateFlags: para, Peephole: w.peephole}
	if w.superblocks {
		cfg.HotThreshold = 4
		cfg.TraceBudget = 12
	}
	return cfg
}

// program is one workload program with its leave-one-out rule stores and
// its reference-interpreter final state.
type program struct {
	name       string
	suite      int
	comp       *minic.Compiled
	base, para *rule.Store
	want       oracle
}

// setupStats are the set-up's per-module times and counts.
type setupStats struct {
	compile, learn, param      time.Duration
	rulesLearned, instantiated int
}

// setup builds the corpus of suite 0 and, for every program run, the
// leave-one-out stores: rules learned from the other eleven programs of
// suite 0. A program of a later suite is compiled on its own and uses
// the stores of its profile, so its own profile is left out too. Untimed
// the corpus comes from exp.BuildCorpus; timed, setup makes the same
// minic.Compile and learn.FromCompiled calls one by one so each module's
// time shows.
func (w engineWorkload) setup(seed int64, timed bool) ([]*program, setupStats, error) {
	var st setupStats
	if err := useSuites(seed, 1, w.scale); err != nil {
		return nil, st, err
	}
	var c *exp.Corpus
	var err error
	if timed {
		c, err = buildCorpusTimed(w.scale, &st)
	} else {
		c, err = exp.BuildCorpus(w.scale)
	}
	if err != nil {
		return nil, st, err
	}
	for _, n := range c.Names {
		st.rulesLearned += c.Learn[n].Unique
	}
	names := w.progs
	if names == nil {
		names = c.Names
	}
	var progs []*program
	for _, n := range names {
		union := c.Union(c.Others(n))
		t0 := time.Now()
		para, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
		st.param += time.Since(t0)
		st.instantiated += counts.Instantiated
		for v := 0; v < w.suites; v++ {
			comp := c.Comp[n]
			if v > 0 {
				p, err := suiteProfile(canonicalProfile(n), seed, v, w.scale)
				if err != nil {
					return nil, st, err
				}
				t1 := time.Now()
				comp, err = minic.Compile(workload.Generate(p, w.scale))
				st.compile += time.Since(t1)
				if err != nil {
					return nil, st, fmt.Errorf("%s.%d: %w", n, v, err)
				}
			}
			progs = append(progs, &program{name: n, suite: v, comp: comp, base: union, para: para})
		}
	}
	return progs, st, nil
}

// choose picks every program the workload runs at the seed (see
// suiteProfile), so the timed set-up does not include the compiles that
// choosing takes.
func (w engineWorkload) choose(seed int64) error {
	if err := useSuites(seed, 1, w.scale); err != nil {
		return err
	}
	names := w.progs
	if names == nil {
		names = workload.Names()
	}
	for _, n := range names {
		for v := 1; v < w.suites; v++ {
			if _, err := suiteProfile(canonicalProfile(n), seed, v, w.scale); err != nil {
				return err
			}
		}
	}
	return nil
}

// canonicalProfile returns the workload profile with the given name.
func canonicalProfile(name string) workload.Profile {
	for _, p := range canonicalProfiles {
		if p.Name == name {
			return p
		}
	}
	panic("perfbench: unknown profile " + name)
}

// buildCorpusTimed is exp.BuildCorpus with the compile and learn calls
// timed separately.
func buildCorpusTimed(scale int, st *setupStats) (*exp.Corpus, error) {
	c := &exp.Corpus{
		Names:  workload.Names(),
		Comp:   map[string]*minic.Compiled{},
		Stores: map[string]*rule.Store{},
		Learn:  map[string]learn.Stats{},
		Scale:  scale,
	}
	for _, b := range workload.All(scale) {
		t0 := time.Now()
		comp, err := minic.Compile(b.Prog)
		st.compile += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		s := rule.NewStore()
		t1 := time.Now()
		c.Learn[b.Name] = learn.FromCompiled(comp, s)
		st.learn += time.Since(t1)
		c.Comp[b.Name] = comp
		c.Stores[b.Name] = s
	}
	return c, nil
}

// oracle is the architectural state a run must end in: r0-r14, NZCV and
// a checksum of guest memory below the CPUState block. The PC is left
// out because the engine halts at dbt.HaltPC.
type oracle struct {
	r     [guest.PC]uint32
	flags guest.Flags
	sum   uint64
	insts uint64 // guest instructions retired by the interpreter
}

func stateOf(st *guest.State) oracle {
	var o oracle
	copy(o.r[:], st.R[:guest.PC])
	o.flags = st.Flags
	o.sum = st.Mem.Checksum(0, env.StateBase)
	return o
}

// oracleOf runs the program on the reference interpreter.
func oracleOf(comp *minic.Compiled) (oracle, error) {
	st, err := comp.RunInterp(maxGuestSteps)
	if err != nil {
		return oracle{}, err
	}
	if !st.Halted {
		return oracle{}, fmt.Errorf("reference interpreter did not halt")
	}
	o := stateOf(st)
	o.insts = st.InstCount
	return o, nil
}

// runOut is one guest run: load to clean halt in a fresh engine.
type runOut struct {
	wall, newDur time.Duration
	st           dbt.Stats
	exec         [3]uint64
	got          oracle
}

func runOnce(comp *minic.Compiled, cfg dbt.Config) (runOut, error) {
	t0 := time.Now()
	m := mem.New()
	if _, err := comp.LoadGuest(m); err != nil {
		return runOut{}, err
	}
	t1 := time.Now()
	e := dbt.New(m, cfg)
	newDur := time.Since(t1)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, maxHostSteps)
	wall := time.Since(t0)
	if err != nil {
		return runOut{}, err
	}
	return runOut{wall: wall, newDur: newDur, st: st, exec: e.CPU.Executed, got: stateOf(e.GuestState())}, nil
}

// check compares a run with the oracle, including the number of guest
// instructions retired. NZCV at halt is stale by design under flag
// delegation, so there a mismatch is reported as stale rather than
// failing the run.
func check(out runOut, want oracle, delegate bool) (ok, stale bool) {
	ok = out.st.Divergences == 0 && out.got.r == want.r && out.got.sum == want.sum && out.st.GuestExec == want.insts
	if out.got.flags != want.flags {
		if delegate {
			stale = true
		} else {
			ok = false
		}
	}
	return ok, stale
}

// counters are one run's counts, the ones later rounds must repeat.
type counters struct {
	guest, covered, seq, blocks, disp, chained, translations uint64
	validated, fallbacks, traces, sbExecs, sideExits         uint64
	shadow, interpFB                                         uint64
	exec                                                     [3]uint64
}

func countersOf(o runOut) counters {
	s := o.st
	return counters{
		guest: s.GuestExec, covered: s.RuleCovered, seq: s.SeqRuleUses, blocks: uint64(s.Blocks),
		disp: s.Dispatches, chained: s.ChainedExits, translations: s.Translations,
		validated: s.BlocksValidated, fallbacks: s.ValidateFallbacks,
		traces: s.TracesFormed, sbExecs: s.SuperblockExecs, sideExits: s.SideExits,
		shadow: s.ShadowChecks, interpFB: s.InterpFallbacks, exec: o.exec,
	}
}

func (c counters) total() uint64 { return c.exec[0] + c.exec[1] + c.exec[2] }

func (c *counters) add(o counters) {
	c.guest += o.guest
	c.covered += o.covered
	c.seq += o.seq
	c.blocks += o.blocks
	c.disp += o.disp
	c.chained += o.chained
	c.translations += o.translations
	c.validated += o.validated
	c.fallbacks += o.fallbacks
	c.traces += o.traces
	c.sbExecs += o.sbExecs
	c.sideExits += o.sideExits
	c.shadow += o.shadow
	c.interpFB += o.interpFB
	for i := range c.exec {
		c.exec[i] += o.exec[i]
	}
}

// arm is one (program, configuration) pair of a round.
type arm struct {
	prog     *program
	para     bool
	measured bool
	cfg      dbt.Config // untraced
	tcfg     dbt.Config // traced: timed backend, shared telemetry registry
	ref      counters   // from the reference pass
	refOK    bool
	sum      counters // over untraced measured runs
	n        int
	stale    int
	totals   []float64 // host instructions per untraced run
	covs     []float64 // coverage per untraced run
}

func (a *arm) label() string {
	cfg := "base"
	if a.para {
		cfg = "para"
	}
	return fmt.Sprintf("%s.%d/%s", a.prog.name, a.prog.suite, cfg)
}

// runArm runs one arm once, checks it and counts it in rep.
func runArm(rep *report, a *arm, cfg dbt.Config) (out runOut, ok, stale bool) {
	rep.attempted++
	out, err := runOnce(a.prog.comp, cfg)
	if err != nil {
		rep.failed++
		warnf("%s: %v", a.label(), err)
		return out, false, false
	}
	ok, stale = check(out, a.prog.want, cfg.DelegateFlags)
	if !ok {
		rep.failed++
		warnf("%s: final state differs from the reference interpreter (divergences %d)", a.label(), out.st.Divergences)
	}
	return out, ok, stale
}

// bench is a prepared engine workload: its arms checked once each.
type bench struct {
	arms []*arm
	st   setupStats
	bt   backendTimes
	treg *obs.Registry
}

// prepare sets the workload up (setupReps times untraced, recording
// setup_s; once with module timers when traced), computes every
// program's oracle, and runs the reference pass: every arm once,
// untimed, which warms the runtime and records the counters every
// measured run must repeat.
func (w engineWorkload) prepare(rep *report, seed int64, traced bool) (*bench, error) {
	be, err := backend.Lookup(w.backend)
	if err != nil {
		return nil, err
	}
	if err := w.choose(seed); err != nil {
		return nil, err
	}
	b := &bench{treg: obs.NewRegistry()}
	var progs []*program
	if traced {
		progs, b.st, err = w.setup(seed, true)
	} else {
		var times []float64
		for i := 0; i < setupReps && err == nil; i++ {
			// Every set-up starts from the same live heap: the previous
			// one's programs are garbage.
			progs = nil
			runtime.GC()
			t0 := time.Now()
			progs, b.st, err = w.setup(seed, false)
			times = append(times, time.Since(t0).Seconds())
		}
		rep.set("setup_s", median(times))
	}
	if err != nil {
		return nil, err
	}
	tbe := timeBackend(be, &b.bt)
	for _, p := range progs {
		if p.want, err = oracleOf(p.comp); err != nil {
			return nil, fmt.Errorf("%s.%d oracle: %w", p.name, p.suite, err)
		}
		for _, para := range []bool{false, true} {
			rules := p.base
			if para {
				rules = p.para
			}
			a := &arm{prog: p, para: para, measured: para || w.measureBase, cfg: w.config(rules, para, be)}
			a.tcfg = a.cfg
			a.tcfg.Backend = tbe
			a.tcfg.Metrics = b.treg
			b.arms = append(b.arms, a)
		}
	}
	for _, a := range b.arms {
		out, ok, _ := runArm(rep, a, a.cfg)
		if !ok {
			continue
		}
		a.ref, a.refOK = countersOf(out), true
		if !a.measured {
			a.totals = append(a.totals, float64(a.ref.total()))
		}
	}
	return b, nil
}

// minRuns is the fewest untraced runs a --trace 0 run measures, so that
// at least ten samples lie beyond run_ms_p90.
const minRuns = 110

func (w engineWorkload) measure(o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	b, err := w.prepare(rep, o.seed, o.trace)
	if err != nil {
		return nil, err
	}
	arms, treg := b.arms, b.treg

	var walls, twalls []float64
	var guestSum, alloc uint64
	var tNew time.Duration
	var m0, m1 runtime.MemStats
	start := time.Now()
	deadline := start.Add(o.seconds)
	for round := 0; ; round++ {
		traced := o.trace && round%2 == 1
		if traced {
			obs.SetEnabled(true)
		} else if o.trace {
			runtime.ReadMemStats(&m0)
		}
		for _, a := range arms {
			if !a.measured {
				continue
			}
			cfg := a.cfg
			if traced {
				cfg = a.tcfg
			}
			out, ok, stale := runArm(rep, a, cfg)
			if !ok {
				continue
			}
			c := countersOf(out)
			w.checkRepeat(rep, a, c, traced)
			if traced {
				twalls = append(twalls, ms(out.wall))
				tNew += out.newDur
				continue
			}
			walls = append(walls, ms(out.wall))
			guestSum += c.guest
			a.sum.add(c)
			a.n++
			a.totals = append(a.totals, float64(c.total()))
			a.covs = append(a.covs, float64(c.covered)/float64(c.guest))
			if stale {
				a.stale++
			}
		}
		if traced {
			obs.SetEnabled(false)
		} else if o.trace {
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
		}
		if !time.Now().Before(deadline) && (o.trace && round >= 1 || !o.trace && len(walls) >= minRuns) {
			break
		}
	}
	phase := time.Since(start)
	runtime.GC()
	var hs runtime.MemStats
	runtime.ReadMemStats(&hs)
	runtime.KeepAlive(arms)
	if len(walls) == 0 {
		return nil, fmt.Errorf("no successful measured run")
	}

	// Each program's median over its untraced runs: on long-run,
	// background superblock formation makes host counts vary run to run.
	// A program that failed every run is left out; its failures are in
	// rep.failed, which marks the result incorrect.
	var hpg, cov, speed []float64
	for i := 0; i < len(arms); i += 2 {
		base, para := arms[i], arms[i+1]
		if para.n == 0 || len(base.totals) == 0 {
			continue
		}
		pt := median(para.totals)
		hpg = append(hpg, pt/(float64(para.sum.guest)/float64(para.n)))
		cov = append(cov, median(para.covs))
		speed = append(speed, median(base.totals)/pt)
	}
	if len(hpg) == 0 {
		return nil, fmt.Errorf("no program ran successfully")
	}
	rep.set("run_ms_p50", quantile(walls, 0.5))
	rep.set("run_ms_p90", quantile(walls, 0.9))
	rep.set("guest_mips", float64(guestSum)/phase.Seconds()/1e6)
	rep.set("heap_mb", float64(hs.HeapAlloc)/1e6)
	rep.set("host_per_guest", geomean(hpg))
	rep.set("coverage", geomean(cov))
	rep.set("speedup_vs_base", geomean(speed))
	if !o.trace {
		return rep, nil
	}

	// Per-layer metrics. Counts are per round (one pass over the measured
	// arms) from the untraced rounds; times are per guest run from the
	// traced rounds.
	var perRound counters
	var measured []*arm
	var stale int
	for _, a := range arms {
		if !a.measured || a.n == 0 {
			continue
		}
		measured = append(measured, a)
		perRound.add(a.sum)
		stale += a.stale
	}
	rounds := float64(len(walls)) / float64(len(measured))
	per := func(v uint64) float64 { return float64(v) / rounds }
	nT := float64(len(twalls))
	if nT == 0 {
		return nil, fmt.Errorf("no successful traced run")
	}
	perRun := func(ns int64) float64 { return float64(ns) / 1e9 / nT }
	translate := treg.Histogram(dbt.MetTranslateNs)
	dispatchNs := int64(treg.Histogram(dbt.MetLookupNs).Sum() + treg.Histogram(dbt.MetChainNs).Sum())
	runS := mean(twalls) / 1e3
	translateS := perRun(int64(translate.Sum()))
	dispatchS := perRun(dispatchNs)
	execS := runS - translateS - dispatchS

	b.st.set(rep)
	rep.set("dbt.new_ms", ms(tNew)/nT)
	rep.set("dbt.translate_s", translateS)
	rep.set("dbt.translations", per(perRound.translations))
	rep.set("dbt.translate_us_per_block", ratio(float64(translate.Sum()), float64(translate.Count()))/1e3)
	rep.set("backend.lower_s", perRun(b.bt.lower.Load()))
	rep.set("backend.finalize_s", perRun(b.bt.finalize.Load()))
	rep.set("backend.peephole_s", perRun(b.bt.peephole.Load()))
	rep.set("analysis.validate_eval_s", perRun(b.bt.eval.Load()))
	rep.set("dbt.blocks_validated", per(perRound.validated))
	rep.set("dbt.validate_fallbacks", per(perRound.fallbacks))
	rep.set("analysis.proved_frac", ratio(float64(perRound.validated), float64(perRound.validated+perRound.fallbacks)))
	rep.set("rule.seq_rule_insts", per(perRound.seq))
	rep.set("tcg.emulated_insts", per(perRound.guest-perRound.covered))
	rep.set("dbt.dispatch_s", dispatchS)
	rep.set("dbt.dispatches", per(perRound.disp))
	rep.set("dbt.chain_rate", ratio(float64(perRound.chained), float64(perRound.disp+perRound.chained)))
	rep.set("trace.traces_formed", per(perRound.traces))
	rep.set("trace.superblock_share", ratio(float64(perRound.sbExecs), float64(perRound.disp+perRound.chained)))
	rep.set("trace.side_exit_rate", ratio(float64(perRound.sideExits), float64(perRound.sbExecs)))
	var table2 [3][]float64
	for _, a := range measured {
		if a.para {
			for k := range table2 {
				table2[k] = append(table2[k], float64(a.sum.exec[k])/float64(a.sum.guest))
			}
		}
	}
	setTable2(rep, mean(table2[0]), mean(table2[1]), mean(table2[2]))
	rep.set("host.exec_s", execS)
	rep.set("host.mips", ratio(float64(perRound.total())/float64(len(walls)), execS)/1e6)
	rep.set("go.alloc_mb_per_run", float64(alloc)/float64(len(walls))/1e6)
	rep.set("guard.shadow_checks_per_run", float64(perRound.shadow)/float64(len(walls)))
	rep.set("guard.interp_fallbacks", per(perRound.interpFB))
	rep.set("guard.nzcv_stale_runs", per(uint64(stale)))
	for _, n := range []string{"dbt.serve_cache_hit_frac", "dbt.serve_translations", "dbt.serve_spec_translations",
		"dbt.serve_overloads", "dbt.serve_max_queue_depth", "dbt.serve_wait_s"} {
		rep.set(n, 0)
	}
	rep.set("trace.run_s", runS)
	rep.set("trace.overhead_frac", mean(twalls)/mean(walls)-1)
	return rep, nil
}

// checkRepeat records a problem when a run of a deterministic workload
// does not repeat its arm's reference-run counters. Every run's guest
// instruction count is already checked against the interpreter.
func (w engineWorkload) checkRepeat(rep *report, a *arm, c counters, traced bool) {
	if w.deterministic && a.refOK && c != a.ref {
		rep.problem("%s: counters differ from the reference run (traced %v): %+v vs %+v", a.label(), traced, c, a.ref)
	}
}

func (st setupStats) set(rep *report) {
	rep.set("minic.compile_s", st.compile.Seconds())
	rep.set("minic.programs_rejected", float64(rejected))
	rep.set("learn.learn_s", st.learn.Seconds())
	rep.set("learn.rules_learned", float64(st.rulesLearned))
	rep.set("core.parameterize_s", st.param.Seconds())
	rep.set("core.rules_instantiated", float64(st.instantiated))
}

// setTable2 records the paper's Table II categories: host instructions
// per guest instruction, averaged over the workload's programs.
func setTable2(rep *report, rule, data, control float64) {
	rep.set("host.rule_translated_per_guest", rule)
	rep.set("host.data_transfer_per_guest", data)
	rep.set("host.control_per_guest", control)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
