package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/minic"
	"paramdbt/internal/obs"
	"paramdbt/internal/serve"
)

// serveClients is the number of closed-loop clients on serve-mix: each
// sends its next request when the previous one returns.
const serveClients = 2

// serveSuites is how many suites of the twelve programs the server
// hosts; more programs in a run steady its figures across seeds.
const serveSuites = 3

// servedProgram is what serve-mix checks each tenant run against. The
// host-instruction figures come from a standalone engine with the
// server's codegen configuration, because serve.TenantResult carries no
// host count; hostOK records that those runs passed their checks.
type servedProgram struct {
	name      string
	want      oracle
	hostOK    bool
	paraTotal float64
	baseTotal float64
	exec      [3]uint64
	cov       []float64 // tenant coverage per untraced request
}

// request is one RunTenant call as a client saw it.
type request struct {
	prog *servedProgram
	wall time.Duration
	res  serve.TenantResult
	err  error
}

func measureServe(o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	if err := useSuites(o.seed, serveSuites, 1); err != nil {
		return nil, err
	}
	x86 := backend.MustLookup("x86")
	var srv, tsrv *serve.Server
	var bt backendTimes
	treg := obs.NewRegistry()
	if o.trace {
		var err error
		if srv, err = serve.NewServer(serve.Config{Backend: x86}); err != nil {
			return nil, err
		}
		defer srv.Close()
		if tsrv, err = serve.NewServer(serve.Config{Backend: timeBackend(x86, &bt), Metrics: treg}); err != nil {
			return nil, err
		}
		defer tsrv.Close()
	} else {
		var times []float64
		for i := 0; i < setupReps; i++ {
			// Every set-up starts from the same live heap: the previous
			// server is closed and garbage.
			if srv != nil {
				srv.Close()
				srv = nil
			}
			runtime.GC()
			t0 := time.Now()
			s, err := serve.NewServer(serve.Config{Backend: x86})
			times = append(times, time.Since(t0).Seconds())
			if err != nil {
				return nil, err
			}
			srv = s
		}
		defer srv.Close()
		rep.set("setup_s", median(times))
	}

	progs, st, err := servedPrograms(srv, rep)
	if err != nil {
		return nil, err
	}

	// One untimed request per program and server fills the shared
	// prototype cache: the measured requests see the steady state a
	// long-running server is in, not its cold start.
	for _, s := range []*serve.Server{srv, tsrv} {
		for _, p := range progs {
			if s != nil {
				checkRequest(rep, doRequest(s, p), false)
			}
		}
	}

	rng := rand.New(rand.NewSource(o.seed))
	var walls, twalls []float64
	var guestSum, alloc uint64
	var m0, m1 runtime.MemStats
	var stats0 dbt.ServiceStats
	var perRound tenantCounts
	untracedRounds := 0
	start := time.Now()
	deadline := start.Add(o.seconds)
	for round := 0; ; round++ {
		traced := o.trace && round%2 == 1
		s := srv
		if traced {
			s = tsrv
			obs.SetEnabled(true)
		} else {
			runtime.ReadMemStats(&m0)
			if untracedRounds == 0 {
				stats0 = srv.Stats()
			}
		}
		// Each client works through its own seeded shuffle of the suite,
		// so every round requests every program once per client.
		decks := make([][]*servedProgram, serveClients)
		for c := range decks {
			decks[c] = make([]*servedProgram, len(progs))
			for i, j := range rng.Perm(len(progs)) {
				decks[c][i] = progs[j]
			}
		}
		done := make([][]request, serveClients)
		var wg sync.WaitGroup
		for c := range decks {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, p := range decks[c] {
					done[c] = append(done[c], doRequest(s, p))
				}
			}(c)
		}
		wg.Wait()
		if traced {
			obs.SetEnabled(false)
		} else {
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
			untracedRounds++
		}
		for _, reqs := range done {
			for _, r := range reqs {
				if !checkRequest(rep, r, traced) {
					continue
				}
				if traced {
					twalls = append(twalls, ms(r.wall))
					continue
				}
				walls = append(walls, ms(r.wall))
				guestSum += r.res.Stats.GuestExec
				r.prog.cov = append(r.prog.cov, r.res.Stats.Coverage())
				perRound.add(r.res.Stats)
			}
		}
		if !time.Now().Before(deadline) && (o.trace && round >= 1 || !o.trace && len(walls) >= minRuns) {
			break
		}
	}
	phase := time.Since(start)
	stats1 := srv.Stats()
	runtime.GC()
	var hs runtime.MemStats
	runtime.ReadMemStats(&hs)
	runtime.KeepAlive(srv)
	if len(walls) == 0 {
		return nil, fmt.Errorf("no successful measured request")
	}

	// A program that failed every request, or its standalone runs, is
	// left out; its failures are in rep.failed.
	var hpg, cov, speed, totals []float64
	var table2 [3][]float64
	for _, p := range progs {
		if len(p.cov) > 0 {
			cov = append(cov, median(p.cov))
		}
		if !p.hostOK {
			continue
		}
		g := float64(p.want.insts)
		hpg = append(hpg, p.paraTotal/g)
		speed = append(speed, p.baseTotal/p.paraTotal)
		totals = append(totals, p.paraTotal)
		for k := range table2 {
			table2[k] = append(table2[k], float64(p.exec[k])/g)
		}
	}
	if len(cov) == 0 || len(hpg) == 0 {
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

	// Per-layer metrics. A tenant engine registers its telemetry in a
	// private registry inside RunTenant, so the engine's translate,
	// lookup and chain histograms and dbt.New are not observable from
	// outside on this workload and read 0; translation happens in the
	// shared service and shows in the backend and dbt.serve_* metrics.
	nT := float64(len(twalls))
	if nT == 0 {
		return nil, fmt.Errorf("no successful traced request")
	}
	rounds := float64(untracedRounds)
	per := func(v uint64) float64 { return float64(v) / rounds }
	perRun := func(ns int64) float64 { return float64(ns) / 1e9 / nT }
	runS := mean(twalls) / 1e3
	waitS := perRun(int64(treg.Histogram(dbt.MetServeWaitNs).Sum()))
	execS := runS - waitS
	st.set(rep)
	for _, n := range []string{"dbt.new_ms", "dbt.translate_s", "dbt.translate_us_per_block", "dbt.dispatch_s",
		"trace.traces_formed", "trace.superblock_share", "trace.side_exit_rate", "guard.nzcv_stale_runs"} {
		rep.set(n, 0)
	}
	rep.set("dbt.translations", per(perRound.translations))
	rep.set("backend.lower_s", perRun(bt.lower.Load()))
	rep.set("backend.finalize_s", perRun(bt.finalize.Load()))
	rep.set("backend.peephole_s", perRun(bt.peephole.Load()))
	rep.set("analysis.validate_eval_s", perRun(bt.eval.Load()))
	rep.set("dbt.blocks_validated", per(perRound.validated))
	rep.set("dbt.validate_fallbacks", per(perRound.fallbacks))
	rep.set("analysis.proved_frac", ratio(float64(perRound.validated), float64(perRound.validated+perRound.fallbacks)))
	rep.set("rule.seq_rule_insts", per(perRound.seq))
	rep.set("tcg.emulated_insts", per(perRound.guest-perRound.covered))
	rep.set("dbt.dispatches", per(perRound.disp))
	rep.set("dbt.chain_rate", ratio(float64(perRound.chained), float64(perRound.disp+perRound.chained)))
	setTable2(rep, mean(table2[0]), mean(table2[1]), mean(table2[2]))
	rep.set("host.exec_s", execS)
	rep.set("host.mips", ratio(mean(totals), execS)/1e6)
	rep.set("go.alloc_mb_per_run", float64(alloc)/float64(len(walls))/1e6)
	rep.set("guard.shadow_checks_per_run", float64(perRound.shadow)/float64(len(walls)))
	rep.set("guard.interp_fallbacks", per(perRound.interpFB))
	rep.set("dbt.serve_cache_hit_frac", ratio(float64(stats1.CacheHits-stats0.CacheHits), float64(stats1.Requests-stats0.Requests)))
	rep.set("dbt.serve_translations", per(stats1.Translations-stats0.Translations))
	rep.set("dbt.serve_spec_translations", per(stats1.SpecTranslations-stats0.SpecTranslations))
	rep.set("dbt.serve_overloads", per(stats1.Overloads-stats0.Overloads))
	rep.set("dbt.serve_max_queue_depth", float64(stats1.MaxQueueDepth))
	rep.set("dbt.serve_wait_s", waitS)
	rep.set("trace.run_s", runS)
	rep.set("trace.overhead_frac", mean(twalls)/mean(walls)-1)
	return rep, nil
}

// servedPrograms compiles and learns the suite outside the server (the
// same calls serve.NewServer makes, timed by module), runs each program
// on the reference interpreter, and runs it once in a standalone engine
// under the server's rule store and codegen configuration and once with
// learned rules only.
func servedPrograms(srv *serve.Server, rep *report) ([]*servedProgram, setupStats, error) {
	var st setupStats
	c, err := buildCorpusTimed(1, &st)
	if err != nil {
		return nil, st, err
	}
	for _, n := range c.Names {
		st.rulesLearned += c.Learn[n].Unique
	}
	union := c.Union(c.Names)
	t0 := time.Now()
	_, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	st.param = time.Since(t0)
	st.instantiated = counts.Instantiated

	x86 := srv.Service().Backend()
	var progs []*servedProgram
	for _, n := range srv.Benches() {
		comp := c.Comp[n]
		want, err := oracleOf(comp)
		if err != nil {
			return nil, st, fmt.Errorf("%s oracle: %w", n, err)
		}
		p := &servedProgram{name: n, want: want}
		para, paraOK := standalone(rep, p, comp, dbt.Config{Rules: srv.Service().Rules(), Backend: x86, DelegateFlags: true})
		base, baseOK := standalone(rep, p, comp, dbt.Config{Rules: union, Backend: x86})
		if paraOK && baseOK {
			p.hostOK, p.exec = true, para.exec
			p.paraTotal, p.baseTotal = float64(countersOf(para).total()), float64(countersOf(base).total())
		}
		progs = append(progs, p)
	}
	return progs, st, nil
}

// standalone runs a served program in its own engine and checks it like
// any other run.
func standalone(rep *report, p *servedProgram, comp *minic.Compiled, cfg dbt.Config) (runOut, bool) {
	rep.attempted++
	out, err := runOnce(comp, cfg)
	if err == nil {
		if ok, _ := check(out, p.want, cfg.DelegateFlags); ok {
			return out, true
		}
		err = fmt.Errorf("final state differs from the reference interpreter")
	}
	rep.failed++
	warnf("%s standalone: %v", p.name, err)
	return out, false
}

func doRequest(s *serve.Server, p *servedProgram) request {
	t0 := time.Now()
	res, err := s.RunTenant(p.name)
	return request{prog: p, wall: time.Since(t0), res: res, err: err}
}

// checkRequest counts one request in rep and reports whether it passed.
// A tenant run exposes no memory or flags: it must return the reference
// interpreter's r0 and retire its guest instruction count (so every
// tenant of a program agrees), record no shadow divergence, and have run
// attached to the shared service.
func checkRequest(rep *report, r request, traced bool) bool {
	rep.attempted++
	switch {
	case r.err != nil:
		warnf("%s: %v", r.prog.name, r.err)
	case r.res.Stats.Divergences != 0:
		warnf("%s: tenant %d recorded %d shadow divergences", r.prog.name, r.res.Tenant, r.res.Stats.Divergences)
	case r.res.R0 != r.prog.want.r[0]:
		warnf("%s: tenant %d r0 %#x, reference interpreter %#x", r.prog.name, r.res.Tenant, r.res.R0, r.prog.want.r[0])
	case r.res.Stats.GuestExec != r.prog.want.insts:
		warnf("%s: tenant %d retired %d guest instructions, reference interpreter %d",
			r.prog.name, r.res.Tenant, r.res.Stats.GuestExec, r.prog.want.insts)
	default:
		if !r.res.UsedService {
			rep.problem("%s: tenant %d ran standalone, not attached to the service (traced %v)", r.prog.name, r.res.Tenant, traced)
		}
		return true
	}
	rep.failed++
	return false
}

// tenantCounts sums tenant Stats over untraced requests.
type tenantCounts struct {
	guest, covered, seq, disp, chained, translations uint64
	validated, fallbacks, shadow, interpFB           uint64
}

func (c *tenantCounts) add(s dbt.Stats) {
	c.guest += s.GuestExec
	c.covered += s.RuleCovered
	c.seq += s.SeqRuleUses
	c.disp += s.Dispatches
	c.chained += s.ChainedExits
	c.translations += s.Translations
	c.validated += s.BlocksValidated
	c.fallbacks += s.ValidateFallbacks
	c.shadow += s.ShadowChecks
	c.interpFB += s.InterpFallbacks
}
