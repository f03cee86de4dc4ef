package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

func streamOps(seed int64, phase, worker, n int) []op {
	s := newOpStream(seed, phase, worker, 1000, 3)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestOpSequenceIsSeeded(t *testing.T) {
	for _, phase := range []int{phaseOpen, phaseClosed} {
		for w := 0; w < workers; w++ {
			a, b := streamOps(7, phase, w, 2000), streamOps(7, phase, w, 2000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("phase %d worker %d: same seed gave different ops", phase, w)
			}
			if reflect.DeepEqual(a, streamOps(8, phase, w, 2000)) {
				t.Fatalf("phase %d worker %d: different seeds gave identical ops", phase, w)
			}
		}
	}
	if reflect.DeepEqual(streamOps(7, phaseOpen, 0, 100), streamOps(7, phaseOpen, 1, 100)) {
		t.Fatal("the two workers share one op stream")
	}
	mix, cohorts := partition(7, 500, 3, 50)
	mix2, cohorts2 := partition(7, 500, 3, 50)
	if !reflect.DeepEqual(mix, mix2) || !reflect.DeepEqual(cohorts, cohorts2) {
		t.Fatal("same seed gave different rollout cohorts")
	}
	if _, other := partition(8, 500, 3, 50); reflect.DeepEqual(cohorts, other) {
		t.Fatal("different seeds gave identical rollout cohorts")
	}
	seen := map[int]bool{}
	for _, c := range append(cohorts, mix) {
		for _, i := range c {
			if seen[i] {
				t.Fatalf("client %d in two groups", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 500 || len(mix) != 350 {
		t.Fatalf("partition covers %d clients, mix has %d", len(seen), len(mix))
	}
	if !reflect.DeepEqual(seededRows(7), seededRows(7)) || reflect.DeepEqual(seededRows(7), seededRows(8)) {
		t.Fatal("app rows are not a function of the seed")
	}
	var discovers, redirects int
	for _, o := range streamOps(7, phaseOpen, 0, 20000) {
		if o.kind == kindDiscover {
			discovers++
		} else if o.redirect {
			redirects++
		}
	}
	if discovers < 1800 || discovers > 2200 || redirects < 1600 || redirects > 2000 {
		t.Fatalf("mix off target: %d discovers, %d redirected renewals in 20000 ops", discovers, redirects)
	}
}

// capabilities lists which store interfaces st implements.
func capabilities(st core.Store) map[string]bool {
	_, gen := st.(core.GenerationStore)
	_, tv := st.(core.TableVersionStore)
	_, tx := st.(core.TxStore)
	_, stmt := st.(core.StmtStore)
	_, batch := st.(core.BatchStore)
	_, opt := st.(core.OptionalGenerationStore)
	_, enabled := core.GenerationEnabled(st)
	return map[string]bool{"Generation": gen, "TableVersion": tv, "Tx": tx, "Stmt": stmt,
		"Batch": batch, "OptionalGeneration": opt, "GenerationEnabled": enabled}
}

func TestStoreDecoratorKeepsCapabilities(t *testing.T) {
	legacy := dbms.NewServer("legacy", dbms.WithUser(svcUser, svcPassword))
	legacy.AddDatabase(metaDatabase, sqlmini.NewDB())
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer legacy.Stop()
	drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), 2)
	cs := core.NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+legacy.Addr()+"/"+metaDatabase,
			client.Props{"user": svcUser, "password": svcPassword})
	})
	defer cs.Close()

	for _, st := range []core.Store{core.NewLocalStore(sqlmini.NewDB()), cs} {
		want := capabilities(st)
		if !want["GenerationEnabled"] {
			t.Fatalf("%T: generation not enabled before wrapping", st)
		}
		wrapped, _, err := wrapStore(st, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got := capabilities(wrapped); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapped capabilities %v, want %v", st, got, want)
		}
	}
}

// tiny shrinks a workload to test size.
func tiny(w workload) workload {
	w.warm, w.rate, w.cohort = 400, 400, 40
	return w
}

// TestDecoratorKeepsStatementCounts runs the same seeded ops through a
// traced and an untraced deployment and compares the statements the
// program issued.
func TestDecoratorKeepsStatementCounts(t *testing.T) {
	for _, name := range []string{"steady", "rollout"} {
		w, _ := workloadByName(name)
		w = tiny(w)
		var versions [2]uint64
		var counts [2]dbmsCounts
		const n = 300
		for k, traced := range []bool{false, true} {
			r := newRunner(w, 3, 1, traced)
			if err := r.setup(); err != nil {
				t.Fatal(err)
			}
			b, v := r.d.dbmsCounts(), r.d.leaseVersions()[0]
			var stmts int64
			if traced {
				stmts = r.ts.stmts.Load()
			}
			r.mixClients, _ = partition(3, w.warm, rolloutRounds, w.cohort)
			s := newOpStream(3, phaseClosed, 0, len(r.mixClients), 1)
			renews := 0
			for i := 0; i < n; i++ {
				o := s.next()
				if o.kind == kindRenew {
					renews++
				}
				if !r.mixOp(0, o) {
					t.Fatalf("%s: op %d failed: %v", name, i, r.errs)
				}
			}
			counts[k], versions[k] = r.d.dbmsCounts().minus(b), r.d.leaseVersions()[0]-v
			if int(versions[k]) != renews {
				t.Errorf("%s traced=%v: %d leases versions for %d renewals", name, traced, versions[k], renews)
			}
			// The zero-SQL fast paths: one statement per no-change
			// renewal, none per DISCOVER.
			if traced && r.ts.stmts.Load()-stmts != int64(renews) {
				t.Errorf("%s: decorator saw %d statements for %d renewals", name, r.ts.stmts.Load()-stmts, renews)
			}
			r.teardown()
		}
		if counts[0] != counts[1] || versions[0] != versions[1] {
			t.Errorf("%s: untraced cost %+v / %d versions, traced %+v / %d", name,
				counts[0], versions[0], counts[1], versions[1])
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRunner(tiny(w), 5, 1, traced)
			start := time.Now()
			if err := r.run(); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			o := r.outcome(io.Discard, "smoke")
			if !o.Correct || o.Failed != 0 {
				t.Fatalf("%s traced=%v: correct %v, failed %d: %v", w.name, traced, o.Correct, o.Failed, r.errs)
			}
			for _, m := range r.endToEnd() {
				if !(m.value > 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, m.name, m.value)
				}
			}
			if traced {
				common, _ := r.perLayer(analyze(r.tr.snapshot()))
				if len(common) == 0 {
					t.Errorf("%s: no per-layer metrics", w.name)
				}
			}
			t.Logf("%s traced=%v: %d attempted in %v", w.name, traced, o.Attempted, time.Since(start))
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the result line carries
// exactly the metrics BENCHMARK.json declares, with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(tiny(workloads[0]), 1, 1, true)
	var e2e, layers []string
	for _, m := range r.endToEnd() {
		if !ungated[m.name] {
			e2e = append(e2e, m.name+" "+m.unit)
		}
	}
	common, _ := r.perLayer(traceStats{})
	for _, m := range common {
		layers = append(layers, m.name+" "+m.unit)
	}
	var wantE2E, wantLayers []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, wantLayers)
	}
}
