// Command perfbench is the repository's benchmark. It runs one
// workload (steady, rollout or cluster; "all" runs the three in turn)
// against in-process Drivolution deployments from two client
// goroutines with at most one request in flight each, checks every
// answer, and prints each end-to-end metric by name and unit. With
// --trace 1 it runs the workload a second time with the same seed,
// timing each layer from outside, and prints the per-layer metrics,
// a per-layer table and the tracing overhead.
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "steady, rollout, cluster or all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	)
	flag.Parse()
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := workloadByName(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	final := outcome{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range list {
		o, err := runWorkload(os.Stdout, w, *seed, *seconds, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.Correct = final.Correct && o.Correct
		final.Attempted += o.Attempted
		final.Failed += o.Failed
		for k, v := range o.Metrics {
			if len(list) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !final.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line the contract asks for.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// config records what a result was measured with.
type config struct {
	Workload    string      `json:"workload"`
	Deployment  string      `json:"deployment"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	RateOpsPerS float64     `json:"open_loop_rate_ops_per_s"`
	WarmLeases  int         `json:"warm_leases"`
	Cohort      int         `json:"rollout_cohort"`
	Rounds      [2]int      `json:"mix_and_rollout_rounds"`
	Workers     int         `json:"workers"`
	Box         fingerprint `json:"box"`
}

// runWorkload runs w untraced and, when traced, a second time with
// tracing, printing the human-readable report to out.
func runWorkload(out io.Writer, w workload, seed int64, seconds float64, traced bool, traceDir string) (outcome, error) {
	cfg := config{Workload: w.name, Deployment: w.deploy, Seed: seed, Seconds: seconds, Traced: traced,
		RateOpsPerS: w.rate, WarmLeases: w.warm, Cohort: w.cohort, Rounds: [2]int{mixRounds, rolloutRounds}, Workers: workers, Box: boxFingerprint()}
	b, _ := json.Marshal(cfg) // plain struct of basic types: cannot fail
	fmt.Fprintf(out, "# config %s\n", b)

	plain := newRunner(w, seed, seconds, false)
	if err := plain.run(); err != nil {
		return outcome{}, err
	}
	e2e := plain.endToEnd()
	o := plain.outcome(out, "untraced")
	printMetrics(out, w.name, "end-to-end", e2e)
	if !traced {
		for _, m := range e2e {
			if !ungated[m.name] {
				o.Metrics[m.name] = jsonMetric{m.value, m.unit}
			}
		}
		return o, nil
	}

	tr := newRunner(w, seed, seconds, true)
	if err := tr.run(); err != nil {
		return outcome{}, err
	}
	to := tr.outcome(out, "traced")
	ts := analyze(tr.tr.snapshot())
	common, specific := tr.perLayer(ts)
	printMetrics(out, w.name, "per-layer", append(append([]metric(nil), common...), specific...))
	fmt.Fprintf(out, "# per-layer table (%s, traced run)\n", w.name)
	layerTable(out, ts)
	fmt.Fprintf(out, "# tracing overhead (%s): traced minus untraced\n", w.name)
	for i, m := range tr.endToEnd() {
		fmt.Fprintf(out, "  %-18s %+12.3f %s (%+.1f%%)\n", m.name, m.value-e2e[i].value, m.unit,
			100*ratio(m.value-e2e[i].value, e2e[i].value))
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return outcome{}, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans", w.name, seed))
	if err := tr.tr.write(path); err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(out, "# spans written to %s (id parent op name start_ns end_ns)\n", path)

	o.Correct = o.Correct && to.Correct
	o.Attempted += to.Attempted
	o.Failed += to.Failed
	for _, m := range common {
		o.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return o, nil
}

// outcome checks the run's correctness and prints its error ratio.
func (r *runner) outcome(out io.Writer, label string) outcome {
	r.checkPins()
	r.printPins(out)
	failed := r.failed.Load() + r.wrong.Load()
	o := outcome{Correct: r.wrong.Load() == 0, Attempted: r.attempted.Load(), Failed: failed,
		Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(out, "# %s %s run: attempted %d, failed %d, wrong %d, error_ratio %.6f, correct %v\n",
		r.w.name, label, o.Attempted, r.failed.Load(), r.wrong.Load(), r.errorRatio(), o.Correct)
	fmt.Fprintf(out, "#   populations: warm %d, bootstraps %d, mix ops %d (open %d, closed %d), upgrades %d\n",
		r.w.warm, len(r.m.bootMs), r.m.mix.ops, r.m.openOK, r.m.closedOK, r.m.upgradeOK)
	if len(r.errs) > 0 {
		fmt.Fprintf(out, "#   first errors: %s\n", strings.Join(r.errs, "; "))
	}
	return o
}

func printMetrics(out io.Writer, workload, kind string, ms []metric) {
	fmt.Fprintf(out, "# %s metrics (%s)\n", kind, workload)
	for _, m := range ms {
		note := ""
		if kind == "end-to-end" && ungated[m.name] {
			note = "  (reported, not gated)"
		}
		fmt.Fprintf(out, "  %-36s %14.4f %s%s\n", m.name, m.value, m.unit, note)
	}
}
