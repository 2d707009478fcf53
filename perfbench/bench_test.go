package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"paramdbt/internal/backend"
)

// Recorded reproduction of the canonical suite (suite 0 of the default
// seed): EXPERIMENTS.md for paper-loo, BENCH_peephole.json for gcc. The
// paper's own figures are 95.5% coverage and 1.24x; the differences are
// the model's error, not drift.
const (
	wantCoverage     = 0.933 // paper: 0.955
	wantSpeedup      = 1.21  // paper: 1.24
	wantGccX86       = 3.379
	wantGccRisc      = 3.094
	wantGccValidated = 77
)

// canonical runs the reference pass of one workload on the canonical
// suite only.
func canonical(t *testing.T, w engineWorkload) []*arm {
	t.Helper()
	w.suites = 1
	rep := &report{values: map[string]float64{}}
	b, err := w.prepare(rep, defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d reference runs failed the oracle check", rep.failed, rep.attempted)
	}
	return b.arms
}

// paraArm returns the fully parameterized arm of the named program.
func paraArm(t *testing.T, arms []*arm, name string) *arm {
	t.Helper()
	for _, a := range arms {
		if a.para && a.prog.name == name {
			return a
		}
	}
	t.Fatalf("no para arm for %s", name)
	return nil
}

func hostPerGuest(a *arm) float64 { return float64(a.ref.total()) / float64(a.ref.guest) }

func TestReproductionPaperLOO(t *testing.T) {
	arms := canonical(t, paperLOO)
	var cov, speed []float64
	for i := 0; i < len(arms); i += 2 {
		base, para := arms[i], arms[i+1]
		cov = append(cov, float64(para.ref.covered)/float64(para.ref.guest))
		speed = append(speed, float64(base.ref.total())/float64(para.ref.total()))
	}
	if got := geomean(cov); math.Abs(got-wantCoverage) > 0.0005 {
		t.Errorf("paper-loo coverage %.4f, recorded %.3f", got, wantCoverage)
	}
	if got := geomean(speed); math.Abs(got-wantSpeedup) > 0.005 {
		t.Errorf("paper-loo speedup_vs_base %.4f, recorded %.2f", got, wantSpeedup)
	}
	if got := hostPerGuest(paraArm(t, arms, "gcc")); math.Abs(got-wantGccX86) > 0.0005 {
		t.Errorf("gcc host_per_guest on x86 %.4f, recorded %.3f", got, wantGccX86)
	}
}

func TestReproductionRiscValidate(t *testing.T) {
	gcc := paraArm(t, canonical(t, riscValidate), "gcc")
	if got := hostPerGuest(gcc); math.Abs(got-wantGccRisc) > 0.0005 {
		t.Errorf("gcc host_per_guest on risc with peephole %.4f, recorded %.3f", got, wantGccRisc)
	}
	if gcc.ref.validated != wantGccValidated {
		t.Errorf("gcc blocks validated %d, recorded %d", gcc.ref.validated, wantGccValidated)
	}
}

// TestTracedRoundsRepeatCounters runs a short traced measurement: every
// run must pass the oracle check and the traced rounds must repeat the
// untraced rounds' counters.
func TestTracedRoundsRepeatCounters(t *testing.T) {
	w := riscValidate
	w.suites = 1
	rep, err := w.measure(options{seed: defaultSeed, seconds: time.Second, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("%d failed runs, problems %v", rep.failed, rep.problems)
	}
	for _, d := range perLayer {
		if _, ok := rep.values[d.name]; !ok {
			t.Errorf("per-layer metric %s not measured", d.name)
		}
	}
	if rep.values["dbt.blocks_validated"] == 0 || rep.values["backend.peephole_s"] == 0 {
		t.Errorf("risc-validate validated nothing: %v", rep.values)
	}
}

// TestChooseSkipsRejectedPrograms: at seed 41, minic rejects the program
// of sjeng's suite 1 ("expression too deep"); choosing counts it and
// takes the next generator seed. The canonical suite rejects nothing.
func TestChooseSkipsRejectedPrograms(t *testing.T) {
	rejected = 0
	if err := paperLOO.choose(defaultSeed); err != nil || rejected != 0 {
		t.Fatalf("default seed: err %v, %d programs rejected", err, rejected)
	}
	if err := paperLOO.choose(41); err != nil {
		t.Fatal(err)
	}
	if rejected != 1 {
		t.Errorf("seed 41: %d programs rejected, want 1", rejected)
	}
	base := canonicalProfile("sjeng").Seed + (41*maxSuites+1)*seedStride
	if got := chosen[suiteKey{"sjeng", 41, 1, 1}]; got.Seed != base+1 || got.Name != "sjeng.1" {
		t.Errorf("seed 41 sjeng suite 1: chose %s with generator seed %d, want sjeng.1 with %d", got.Name, got.Seed, base+1)
	}
}

func TestTimedBackendKeepsIdentity(t *testing.T) {
	var bt backendTimes
	for _, name := range backend.Names() {
		be := backend.MustLookup(name)
		tb := timeBackend(be, &bt)
		if tb.Name() != be.Name() || tb.ID() != be.ID() {
			t.Errorf("%s: decorated backend reports %s/%d", name, tb.Name(), tb.ID())
		}
		_, inner := be.(backend.Optimizer)
		_, outer := tb.(backend.Optimizer)
		if inner != outer {
			t.Errorf("%s: Optimizer forwarded %v, inner implements it %v", name, outer, inner)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
