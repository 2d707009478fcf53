// Command perfbench is the repository benchmark. One invocation runs one
// workload, checks every guest run against the reference interpreter,
// and prints every metric by name and unit; the last line of standard
// output is a JSON object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload paper-loo --seed 0 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (wall clock with
// telemetry off, plus the deterministic paper metrics). With --trace 1
// the run alternates untraced and traced rounds and reports per-layer
// metrics: times come from the traced rounds, which time calls into each
// module's public functions from outside and read the engine's existing
// telemetry histograms; counts come from the untraced rounds and must be
// identical in the traced ones. See README.md for the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"paramdbt/internal/minic"
	"paramdbt/internal/workload"
)

// defaultSeed reproduces the canonical twelve-program suite.
const defaultSeed = 0

// heldOutSeed is reserved for confirming claims made on other seeds.
const heldOutSeed = 7919

// A run's programs come in suites: one program per workload profile,
// each profile's generator seed offset by n*seedStride, where seed s
// uses suites n = s*maxSuites onwards. No two seeds share a program, and
// suite 0 of the default seed is the canonical suite.
const (
	seedStride = 1000
	maxSuites  = 8
)

// canonicalProfiles are the workload profiles as the workload package
// defines them.
var canonicalProfiles = append([]workload.Profile(nil), workload.Profiles...)

// suiteKey names one program of a run: a profile in suite v of the seed,
// generated at a scale.
type suiteKey struct {
	name         string
	seed         int64
	suite, scale int
}

// chosen memoizes suiteProfile; rejected counts the generated programs
// minic.Compile rejected while choosing them.
var (
	chosen   = map[suiteKey]workload.Profile{}
	rejected int
)

// suiteProfile returns profile p as it is in suite v of the seed.
// Programs of suites after the first are named "<profile>.<v>".
//
// The generator does not bound expression depth and minic has three
// expression temporaries, so for some generator seeds minic.Compile
// rejects the program ("expression too deep"); this happens for a few
// percent of seeds, never for the canonical suite. The suite's program
// is the first of the generator seeds base, base+1, ... (all inside the
// suite's seedStride window) whose program compiles at the scale; every
// rejected one is counted in minic.programs_rejected.
func suiteProfile(p workload.Profile, seed int64, v, scale int) (workload.Profile, error) {
	k := suiteKey{p.Name, seed, v, scale}
	if c, ok := chosen[k]; ok {
		return c, nil
	}
	base := p.Seed + (seed*maxSuites+int64(v))*seedStride
	if v > 0 {
		p.Name = fmt.Sprintf("%s.%d", p.Name, v)
	}
	for i := int64(0); i < seedStride; i++ {
		p.Seed = base + i
		if _, err := minic.Compile(workload.Generate(p, scale)); err == nil {
			chosen[k] = p
			return p, nil
		}
		rejected++
	}
	return p, fmt.Errorf("%s: minic rejects every generated program in its seed window", p.Name)
}

// useSuites sets workload.Profiles to suites 0..n-1 of the seed, so the
// corpus exp.BuildCorpus builds (directly or inside serve.NewServer) at
// the scale holds those suites' programs. The program under test only
// ever receives the generated programs.
func useSuites(seed int64, n, scale int) error {
	var ps []workload.Profile
	for v := 0; v < n; v++ {
		for _, p := range canonicalProfiles {
			sp, err := suiteProfile(p, seed, v, scale)
			if err != nil {
				return err
			}
			ps = append(ps, sp)
		}
	}
	workload.Profiles = ps
	return nil
}

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"guest_mips", "Minst/s"},
	{"heap_mb", "MB"},
	{"host_per_guest", "ratio"},
	{"coverage", "fraction"},
	{"speedup_vs_base", "x"},
}

// perLayer are the --trace 1 metrics, grouped by module.
var perLayer = []metricDef{
	{"minic.compile_s", "s"},
	{"minic.programs_rejected", "count"},
	{"learn.learn_s", "s"},
	{"learn.rules_learned", "count"},
	{"core.parameterize_s", "s"},
	{"core.rules_instantiated", "count"},
	{"dbt.new_ms", "ms"},
	{"dbt.translate_s", "s"},
	{"dbt.translations", "count"},
	{"dbt.translate_us_per_block", "us"},
	{"backend.lower_s", "s"},
	{"backend.finalize_s", "s"},
	{"backend.peephole_s", "s"},
	{"analysis.validate_eval_s", "s"},
	{"dbt.blocks_validated", "count"},
	{"dbt.validate_fallbacks", "count"},
	{"analysis.proved_frac", "fraction"},
	{"rule.seq_rule_insts", "count"},
	{"tcg.emulated_insts", "count"},
	{"dbt.dispatch_s", "s"},
	{"dbt.dispatches", "count"},
	{"dbt.chain_rate", "fraction"},
	{"trace.traces_formed", "count"},
	{"trace.superblock_share", "fraction"},
	{"trace.side_exit_rate", "fraction"},
	{"host.rule_translated_per_guest", "ratio"},
	{"host.data_transfer_per_guest", "ratio"},
	{"host.control_per_guest", "ratio"},
	{"host.exec_s", "s"},
	{"host.mips", "Minst/s"},
	{"go.alloc_mb_per_run", "MB"},
	{"guard.shadow_checks_per_run", "count"},
	{"guard.interp_fallbacks", "count"},
	{"guard.nzcv_stale_runs", "count"},
	{"dbt.serve_cache_hit_frac", "fraction"},
	{"dbt.serve_translations", "count"},
	{"dbt.serve_spec_translations", "count"},
	{"dbt.serve_overloads", "count"},
	{"dbt.serve_max_queue_depth", "count"},
	{"dbt.serve_wait_s", "s"},
	{"trace.run_s", "s"},
	{"trace.overhead_frac", "fraction"},
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	// problems are correctness failures that are not a single run's:
	// counters that did not repeat between runs or between traced and
	// untraced rounds, and serve tenants that ran without the service.
	problems []string
	values   map[string]float64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its measurement.
var workloads = map[string]func(options) (*report, error){
	"paper-loo":     paperLOO.measure,
	"long-run":      longRun.measure,
	"risc-validate": riscValidate.measure,
	"serve-mix":     measureServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-loo, long-run, risc-validate or serve-mix")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf(
		"input seed: selects the generated program suites and the serve request order (%d: canonical suite; %d: held out for confirming claims)",
		defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 15, "measured-phase length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	measure, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds >= 1, --trace 0|1\n", names)
		return 2
	}
	rep, err := measure(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := emit(stdout, *name, *seed, rep, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the human-readable table, then the JSON result line.
func emit(w io.Writer, name string, seed int64, rep *report, defs []metricDef) error {
	out := resultOut{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	fmt.Fprintf(w, "workload %s seed %d: %d runs attempted, %d failed; %d generated programs rejected by minic\n",
		name, seed, rep.attempted, rep.failed, rejected)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	fmt.Fprintf(w, "  %-32s %16.6f %s\n", "fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "fraction")
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		fmt.Fprintf(w, "  %-32s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if rep.attempted < 1 {
		return errors.New("no runs attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
