package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one named, united value of a result.
type metric struct {
	name, unit string
	value      float64
}

// ungated are the end-to-end metrics that are reported but have no
// bound in BENCHMARK.json: over ten seeds on the shared box the bounds
// were set on, their spread reached 0.26 to 0.41 of the median, beyond
// the largest bound a metric may have.
var ungated = map[string]bool{
	"renew_p99_us": true, "discover_p50_us": true, "discover_p99_us": true,
	"peak_ops_per_s": true, "upgrade_p99_ms": true,
}

// calmChunk is the size of the consecutive sample chunks the calm
// estimator ranks.
const calmChunk = 100

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// calm returns the q-quantile of the calmest quarter of xs. The
// samples, in the order taken, are split into chunks of calmChunk; the
// quarter of the chunks with the lowest medians is pooled and the
// quantile taken over the pool. The box the bounds were set on is
// shared: other tenants slow stretches of a run, never speed them up,
// so the calmest chunks measure the program, while a change that slows
// the program slows every chunk. Pooling keeps a p99 over hundreds of
// samples, not one chunk's few.
func calm(xs []float64, q float64) float64 {
	type chunk struct {
		med float64
		xs  []float64
	}
	k := max(len(xs)/calmChunk, 1)
	cs := make([]chunk, k)
	for i := range cs {
		part := xs[i*len(xs)/k : (i+1)*len(xs)/k]
		cs[i] = chunk{median(part), part}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].med < cs[j].med })
	var pool []float64
	for _, c := range cs[:(k+3)/4] {
		pool = append(pool, c.xs...)
	}
	return quantile(pool, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd lists the metrics a user of the system sees, in the order
// of BENCHMARK.json.
func (r *runner) endToEnd() []metric {
	m := &r.m
	var upgrades []float64
	for _, round := range m.upgradeMs {
		upgrades = append(upgrades, round...)
	}
	return []metric{
		{"setup_s", "s", median(m.setupS)},
		{"heap_peak_mb", "MB", float64(m.heapPeak) / 1e6},
		{"renew_p50_us", "us", calm(m.renewUs, 0.50)},
		{"renew_p99_us", "us", calm(m.renewUs, 0.99)},
		{"discover_p50_us", "us", calm(m.discoverUs, 0.50)},
		{"discover_p99_us", "us", calm(m.discoverUs, 0.99)},
		// Throughput windows and rollout rounds are few: take the
		// calmer quartile of them directly.
		{"peak_ops_per_s", "1/s", quantile(m.peakWindows, 0.75)},
		{"bootstrap_p50_ms", "ms", calm(m.bootMs, 0.50)},
		{"bootstrap_p99_ms", "ms", calm(m.bootMs, 0.99)},
		{"upgrade_p50_ms", "ms", calm(upgrades, 0.50)},
		{"upgrade_p99_ms", "ms", calm(upgrades, 0.99)},
		{"rollout_s", "s", quantile(m.rolloutS, 0.25)},
	}
}

// errorRatio is failed, refused or wrong answers over attempts.
func (r *runner) errorRatio() float64 {
	return ratio(float64(r.failed.Load()+r.wrong.Load()), float64(r.attempted.Load()))
}

// request is one traced request: its root span and the time each
// child layer spent under it.
type request struct {
	root     string
	dur      float64 // µs
	children map[string]float64
}

// traceStats is what the traced run's spans say.
type traceStats struct {
	reqs []request
	// unattributed is store time no request could be matched to.
	unattributed float64
}

// analyze groups spans by request and totals each layer's time per
// request.
func analyze(spans []span) traceStats {
	byOp := make(map[int64]*request)
	get := func(op int64) *request {
		q := byOp[op]
		if q == nil {
			q = &request{children: make(map[string]float64)}
			byOp[op] = q
		}
		return q
	}
	var ts traceStats
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		switch {
		case s.op == 0:
			ts.unattributed += d
		case s.parent == 0:
			q := get(s.op)
			q.root, q.dur = s.name, d
		default:
			get(s.op).children[s.name] += d
		}
	}
	for _, q := range byOp {
		if q.root != "" {
			ts.reqs = append(ts.reqs, *q)
		}
	}
	return ts
}

func isStore(layer string) bool { return strings.HasPrefix(layer, "store.") }

func (q request) store() float64 {
	var t float64
	for name, d := range q.children {
		if isStore(name) {
			t += d
		}
	}
	return t
}

// each applies fn to every request of one of the given types.
func (ts traceStats) each(fn func(q request), roots ...string) {
	for _, q := range ts.reqs {
		for _, r := range roots {
			if q.root == r {
				fn(q)
				break
			}
		}
	}
}

// layer returns the per-request time of one child layer, over the
// requests of type root that crossed it.
func (ts traceStats) layer(root, name string) []float64 {
	var xs []float64
	ts.each(func(q request) {
		if d, ok := q.children[name]; ok {
			xs = append(xs, d)
		}
	}, root)
	return xs
}

// perLayer derives the per-layer metrics of a traced run. The first
// list is the set BENCHMARK.json names (measured on every workload);
// the second holds metrics only some deployments have.
func (r *runner) perLayer(ts traceStats) (common, specific []metric) {
	m := &r.m
	x := &m.mix
	ops := float64(x.ops)
	renews := float64(x.renews)
	var versions0, versionsAll float64
	for i, v := range x.versions {
		if i == 0 {
			versions0 = float64(v)
		}
		versionsAll += float64(v)
	}
	p50 := func(root, layer string) float64 { return quantile(ts.layer(root, layer), 0.5) }
	// The bootstrap exchange is Connect minus the image load and the
	// application connect it contains.
	var exchange []float64
	ts.each(func(q request) {
		if c, ok := q.children["bootloader.connect"]; ok {
			exchange = append(exchange, c-q.children["driverimg.load"]-q.children["client.app_connect"])
		}
	}, "bootstrap")
	common = []metric{
		{"core.store.stmts_per_op", "count", ratio(float64(x.stmts), ops)},
		{"sqlmini.leases_versions_per_renew", "count", ratio(versions0, renews)},
		{"dbms.stmts_per_op", "count", ratio(float64(x.dbms.stmts), ops)},
		{"dbms.stmt_execs_per_op", "count", ratio(float64(x.dbms.stmtExecs), ops)},
		{"dbms.probes_per_op", "count", ratio(float64(x.dbms.probes), ops)},
		{"client.connstore_redials", "count", float64(m.redials)},
		{"client.app_connect_us_p50", "us", p50("bootstrap", "client.app_connect")},
		{"client.first_query_us_p50", "us", p50("bootstrap", "client.first_query")},
		{"driverimg.load_us_p50", "us", p50("bootstrap", "driverimg.load")},
		{"driverimg.loads_per_bootstrap", "count", ratio(float64(m.loads), float64(len(m.bootMs)))},
		{"core.bootstrap_exchange_us_p50", "us", quantile(exchange, 0.5)},
		{"wire.fetch_us_p50", "us", quantile(m.fetchUs, 0.5)},
		{"wire.bytes_per_upgrade", "B", ratio(float64(m.upgradeBytes), float64(m.upgradeOK))},
		{"cluster.redirects_per_op", "count", ratio(float64(x.redirects), ops)},
		{"cluster.owner_renew_us_p50", "us", p50("renew", "core.renew_at_owner")},
		{"cluster.replica_applies_per_renew", "count", ratio(versionsAll, renews)},
		{"go.gc_cpu_fraction", "ratio", ratio(x.rt[0], x.rt[1])},
		{"go.allocs_per_op", "count", ratio(x.rt[2], ops)},
		{"go.bytes_per_op", "B", ratio(x.rt[3], ops)},
		{"bench.gen_lag_p99_us", "us", quantile(m.lagUs, 0.99)},
		{"bench.achieved_rps", "1/s", ratio(float64(m.openOK), m.openS)},
	}
	if r.ts != nil {
		var self, store []float64
		var storeSum, reqSum float64
		ts.each(func(q request) {
			st := q.store()
			self = append(self, q.dur-st)
			store = append(store, st)
			storeSum += st
			reqSum += q.dur
		}, "renew", "discover")
		specific = append(specific,
			metric{"core.self_us_p50", "us", quantile(self, 0.5)},
			metric{"core.store.us_p50", "us", quantile(store, 0.5)},
			metric{"core.store.share", "ratio", ratio(storeSum, reqSum)})
	}
	if r.w.deploy == deployCluster {
		specific = append(specific, metric{"cluster.redirect_hop_us_p50", "us", p50("renew", "cluster.redirect_hop")})
	}
	return common, specific
}

// wrappers are client-side spans that contain other layers' spans;
// every other child span is a leaf layer.
var wrappers = map[string]bool{
	"bootloader.connect":   true,
	"core.renew_at_owner":  true,
	"cluster.redirect_hop": true,
	"core.upgrade_renew":   true,
}

// layerTable prints, per request type, each layer's median time per
// request and its share of the request's total time. The "(core self)"
// row is the request time no leaf layer covers: client, wire and core
// server work.
func layerTable(w io.Writer, ts traceStats) {
	type agg struct {
		n      int
		total  float64
		durs   []float64
		layers map[string][]float64
		sums   map[string]float64
	}
	byRoot := map[string]*agg{}
	var roots []string
	for _, q := range ts.reqs {
		a := byRoot[q.root]
		if a == nil {
			a = &agg{layers: map[string][]float64{}, sums: map[string]float64{}}
			byRoot[q.root] = a
			roots = append(roots, q.root)
		}
		a.n++
		a.total += q.dur
		a.durs = append(a.durs, q.dur)
		self := q.dur
		for name, d := range q.children {
			a.layers[name] = append(a.layers[name], d)
			a.sums[name] += d
			if !wrappers[name] {
				self -= d
			}
		}
		a.layers["(core self)"] = append(a.layers["(core self)"], self)
		a.sums["(core self)"] += self
	}
	sort.Strings(roots)
	fmt.Fprintf(w, "%-10s %7s %12s  %-24s %12s %7s\n", "op", "n", "p50_us", "layer", "self_p50_us", "share")
	for _, root := range roots {
		a := byRoot[root]
		names := make([]string, 0, len(a.layers))
		for name := range a.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			op, n, p := "", "", ""
			if i == 0 {
				op, n, p = root, fmt.Sprint(a.n), fmt.Sprintf("%.1f", quantile(a.durs, 0.5))
			}
			fmt.Fprintf(w, "%-10s %7s %12s  %-24s %12.1f %6.1f%%\n", op, n, p, name,
				quantile(a.layers[name], 0.5), 100*ratio(a.sums[name], a.total))
		}
	}
	if ts.unattributed > 0 {
		fmt.Fprintf(w, "store time no request could be matched to: %.0f us\n", ts.unattributed)
	}
}

// fingerprint identifies the box a result was measured on, so results
// from different boxes are never compared unawares.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func boxFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
