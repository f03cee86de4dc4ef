package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// runner executes one workload once, traced or not.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer      // nil on the untraced run
	ts      *tracedStore // the decorator, when the deployment has a wrappable store
	setups  int

	key  ed25519.PrivateKey
	rows []appRow
	d    *deployment
	v1   image
	ids  []string

	leases []uint64
	owners []uint8
	lcs    [workers][]*core.LeaseClient

	attempted, failed, wrong atomic.Int64
	errMu                    sync.Mutex
	errs                     []string

	m        measures
	stopHeap func()
	streams  map[[2]int]*opStream // by (phase, worker), continued across rounds
	// mixClients are the warm clients the mix draws from; an op's
	// client indexes this list. The rest are the rollout cohorts.
	mixClients []int
}

// measures is everything one run records; report.go turns it into
// metrics. Latency samples are kept in the order they were due.
type measures struct {
	setupS []float64

	bootMs []float64
	loads  int

	renewUs, discoverUs, lagUs []float64
	openOK                     int
	openS                      float64
	peakWindows                []float64 // closed-loop ops/s per window
	closedOK                   int

	upgradeMs    [][]float64 // per rollout round
	rolloutS     []float64   // per rollout round
	fetchUs      []float64
	upgradeOK    int
	upgradeBytes int64

	heapPeak uint64
	mix      mixDelta
	redials  int64

	// Schema DBMS counts per phase, checked against pins.go.
	phases map[string]phaseCount
}

// phaseCount is the schema DBMS work of one phase: ops requests (the
// renewals, in the mix), aux secondary requests (the mix's DISCOVERs,
// the rollout's acks) and fixed one-off units (the rollout's
// publishes).
type phaseCount struct {
	ops, aux, fixed int
	c               dbmsCounts
}

// mixDelta accumulates program counters over every mix slice.
type mixDelta struct {
	ops, renews int
	stmts       int64 // statements at the Store boundary
	dbms        dbmsCounts
	versions    []uint64
	redirects   int64
	rt          [len(runtimeMetrics)]float64
}

func newRunner(w workload, seed int64, seconds float64, traced bool) *runner {
	r := &runner{w: w, seed: seed, seconds: seconds, setups: setups,
		key: ed25519.NewKeyFromSeed(seedBytes(seed)), rows: seededRows(seed)}
	if traced {
		r.tr = newTracer()
		r.setups = 1
	}
	r.ids = make([]string, w.warm)
	for i := range r.ids {
		r.ids[i] = clientID(seed, i)
	}
	r.m.phases = make(map[string]phaseCount)
	r.streams = make(map[[2]int]*opStream)
	return r
}

// seedBytes derives the image signing key's seed.
func seedBytes(seed int64) []byte {
	b := make([]byte, ed25519.SeedSize)
	rand.New(rand.NewSource(subSeed(seed, 0, 100))).Read(b)
	return b
}

// note records the first few failure messages for the report.
func (r *runner) note(err error) {
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

// fail counts a request that failed or was refused.
func (r *runner) fail(err error) { r.failed.Add(1); r.note(err) }

// wrongf counts a wrong answer: a failed correctness check.
func (r *runner) wrongf(format string, args ...any) {
	r.wrong.Add(1)
	r.note(fmt.Errorf("wrong answer: "+format, args...))
}

func parallel(fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func (r *runner) request(i int, leaseID uint64, checksum string) core.Request {
	return core.Request{
		Database: appDatabase, User: appUser, Password: appPassword,
		API: jdbc3, ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID: r.ids[i], LeaseID: leaseID, CurrentChecksum: checksum,
	}
}

// client returns worker w's connection to member m, dialing a fresh
// one after a transport failure poisoned the old one.
func (r *runner) client(w, m int) (*core.LeaseClient, error) {
	if c := r.lcs[w][m]; c != nil {
		return c, nil
	}
	c, err := core.DialLeaseClient(r.d.addrs[m], opTimeout)
	if err != nil {
		return nil, err
	}
	r.lcs[w][m] = c
	return c, nil
}

// settle drops worker w's connection to member m after an error that
// was not a clean protocol answer.
func (r *runner) settle(w, m int, err error) {
	var pe *core.ProtocolError
	var re *core.Redirect
	if err == nil || errors.As(err, &pe) || errors.As(err, &re) {
		return
	}
	if c := r.lcs[w][m]; c != nil {
		c.Close()
		r.lcs[w][m] = nil
	}
}

func (r *runner) closeClients() {
	for w := range r.lcs {
		for _, c := range r.lcs[w] {
			if c != nil {
				c.Close()
			}
		}
		r.lcs[w] = nil
	}
}

// setup builds the deployment, publishes v1 and warms the population,
// timing it.
func (r *runner) setup() error {
	t0 := time.Now()
	if err := r.setupOnce(); err != nil {
		return err
	}
	r.m.setupS = append(r.m.setupS, time.Since(t0).Seconds())
	return nil
}

// teardown stops the deployment and its clients.
func (r *runner) teardown() {
	r.closeClients()
	if r.d != nil {
		r.d.close()
		r.d = nil
	}
}

func (r *runner) setupOnce() error {
	var wrap func(core.Store) (core.Store, error)
	if r.tr != nil {
		wrap = func(st core.Store) (core.Store, error) {
			ws, ts, err := wrapStore(st, r.tr)
			r.ts = ts
			return ws, err
		}
	}
	d, err := deploy(r.w.deploy, r.rows, wrap)
	if err != nil {
		return err
	}
	r.d = d
	if r.v1, err = d.publish(r.key, r.seed, 1); err != nil {
		return err
	}
	for w := range r.lcs {
		r.lcs[w] = make([]*core.LeaseClient, len(d.addrs))
	}
	r.leases = make([]uint64, r.w.warm)
	r.owners = make([]uint8, r.w.warm)
	errs := make([]error, workers)
	parallel(func(w int) {
		for i := w; i < r.w.warm; i += workers {
			if errs[w] = r.warmOne(w, i); errs[w] != nil {
				return
			}
		}
	})
	return errors.Join(errs...)
}

// warmOne bootstraps client i at its owner and acks the checksum, so
// the server drops the staged transfer.
func (r *runner) warmOne(w, i int) error {
	m := r.d.owner(r.v1.id, r.ids[i])
	c, err := r.client(w, m)
	if err != nil {
		return err
	}
	o, err := c.Request(r.request(i, 0, ""))
	if err != nil {
		return fmt.Errorf("warm bootstrap of %s: %w", r.ids[i], err)
	}
	if !o.HasDriver || o.DriverChecksum != r.v1.checksum || o.LeaseID == 0 {
		return fmt.Errorf("warm bootstrap of %s: unexpected offer %+v", r.ids[i], o)
	}
	ack, err := c.Request(r.request(i, o.LeaseID, r.v1.checksum))
	if err != nil {
		return fmt.Errorf("warm ack of %s: %w", r.ids[i], err)
	}
	if ack.HasDriver || ack.LeaseID != o.LeaseID {
		return fmt.Errorf("warm ack of %s: unexpected offer %+v", r.ids[i], ack)
	}
	r.leases[i], r.owners[i] = o.LeaseID, uint8(m)
	return nil
}

// startHeapSampler tracks the peak live heap until stopHeap is called.
func (r *runner) startHeapSampler() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > r.m.heapPeak {
				r.m.heapPeak = v
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	r.stopHeap = func() { close(stop); <-done }
}

// phaseCounts adds the schema DBMS work a phase slice cost.
func (r *runner) phaseCounts(phase string, before dbmsCounts, ops, aux, fixed int) {
	pc := r.m.phases[phase]
	pc.ops, pc.aux, pc.fixed = pc.ops+ops, pc.aux+aux, pc.fixed+fixed
	pc.c = pc.c.plus(r.d.dbmsCounts().minus(before))
	r.m.phases[phase] = pc
}

// stream returns worker w's op stream for phase. Streams continue
// across rounds, so a run's op sequence depends on the seed alone.
func (r *runner) stream(phase, w int) *opStream { return r.streams[[2]int{phase, w}] }

// bootstraps runs cold application starts through a real Bootloader
// for d: Connect (discover, request, fetch, verify, load, app connect)
// and the first app query, then Close.
func (r *runner) bootstraps(round int, d time.Duration) {
	before := r.d.dbmsCounts()
	deadline := time.Now().Add(d)
	out := make([][]float64, workers)
	rts := make([]*driverimg.Runtime, workers)
	parallel(func(w int) {
		rts[w] = newRuntime(r.tr, w)
		for k := 0; time.Now().Before(deadline); k++ {
			cid := fmt.Sprintf("boot-%d-%d-%d-%d", r.seed, round, w, k)
			r.attempted.Add(1)
			if ms, ok := r.bootstrapOne(w, rts[w], cid); ok {
				out[w] = append(out[w], ms)
			}
		}
	})
	n := 0
	for w := range out {
		r.m.bootMs = append(r.m.bootMs, out[w]...)
		r.m.loads += rts[w].Loads()
		n += len(out[w])
	}
	r.phaseCounts("bootstrap", before, n, 0, 0)
}

const appQuery = "SELECT id, name FROM items ORDER BY id"

func (r *runner) bootstrapOne(w int, rt *driverimg.Runtime, cid string) (float64, bool) {
	bl := core.NewBootloader(jdbc3, dbver.PlatformLinuxAMD64, r.d.addrs, rt,
		core.WithCredentials(appUser, appPassword), core.WithTrustKey(r.key.Public().(ed25519.PublicKey)),
		core.WithClientID(cid), core.WithDialTimeout(opTimeout))
	defer bl.Close()
	var op, root int64
	if r.tr != nil {
		op, root = r.tr.open(w, 0, cid)
	}
	t0 := time.Now()
	conn, err := bl.Connect(r.d.appURL, nil)
	t1 := time.Now()
	var t2 time.Time
	ok := false
	if err != nil {
		r.fail(fmt.Errorf("bootstrap connect: %w", err))
	} else {
		res, qerr := conn.Query(appQuery)
		t2 = time.Now()
		switch {
		case qerr != nil:
			r.fail(fmt.Errorf("first app query: %w", qerr))
		case !r.rowsMatch(res.Rows):
			r.wrongf("first app query returned %v", res.Rows)
		default:
			ok = true
		}
		conn.Close()
	}
	if r.tr != nil {
		r.tr.child(w, "bootloader.connect", r.tr.at(t0), r.tr.at(t1))
		if !t2.IsZero() {
			r.tr.child(w, "client.first_query", r.tr.at(t1), r.tr.at(t2))
		}
		r.tr.close(w, op, root, "bootstrap", r.tr.at(t0), 0, cid)
	}
	return float64(t2.Sub(t0)) / 1e6, ok
}

func (r *runner) rowsMatch(rows [][]sqlmini.Value) bool {
	if len(rows) != len(r.rows) {
		return false
	}
	for i, row := range rows {
		if len(row) != 2 || row[0].Int() != r.rows[i].id || row[1].Str() != r.rows[i].name {
			return false
		}
	}
	return true
}

// mixOp runs one generated renewal or DISCOVER and checks the answer.
func (r *runner) mixOp(w int, o op) bool {
	r.attempted.Add(1)
	i := r.mixClients[o.client]
	if o.kind == kindDiscover {
		m := int(o.member)
		var opID, root, t0 int64
		if r.tr != nil {
			opID, root = r.tr.open(w, 0, r.ids[i])
			t0 = r.tr.now()
		}
		c, err := r.client(w, m)
		var off core.Offer
		if err == nil {
			off, err = c.Discover(r.request(i, 0, ""))
		}
		if r.tr != nil {
			r.tr.close(w, opID, root, "discover", t0, 0, r.ids[i])
		}
		if err != nil {
			r.settle(w, m, err)
			r.fail(fmt.Errorf("discover: %w", err))
			return false
		}
		if !off.HasDriver || off.DriverChecksum != r.v1.checksum || int(off.Size) != r.v1.size || off.LeaseID != 0 {
			r.wrongf("discover offered %+v", off)
			return false
		}
		return true
	}

	lease, owner := r.leases[i], int(r.owners[i])
	req := r.request(i, lease, r.v1.checksum)
	var opID, root, t0 int64
	if r.tr != nil {
		opID, root = r.tr.open(w, lease, r.ids[i])
		t0 = r.tr.now()
	}
	ok := r.renewAt(w, o, owner, req)
	if r.tr != nil {
		r.tr.close(w, opID, root, "renew", t0, lease, r.ids[i])
	}
	return ok
}

func (r *runner) renewAt(w int, o op, owner int, req core.Request) bool {
	if o.redirect {
		m := (owner + 1 + int(o.alt)) % len(r.d.addrs)
		t := r.now()
		c, err := r.client(w, m)
		if err == nil {
			_, err = c.Request(req)
		}
		r.child(w, "cluster.redirect_hop", t)
		var re *core.Redirect
		if !errors.As(err, &re) {
			r.settle(w, m, err)
			if err == nil {
				r.wrongf("non-owner member %d granted renewal of lease %d", m, req.LeaseID)
			} else {
				r.fail(fmt.Errorf("renewal at non-owner: %w", err))
			}
			return false
		}
		if re.Addr != r.d.addrs[owner] {
			r.wrongf("redirect for lease %d names %s, owner is %s", req.LeaseID, re.Addr, r.d.addrs[owner])
			return false
		}
	}
	t := r.now()
	c, err := r.client(w, owner)
	var off core.Offer
	if err == nil {
		off, err = c.Request(req)
	}
	r.child(w, "core.renew_at_owner", t)
	if err != nil {
		r.settle(w, owner, err)
		r.fail(fmt.Errorf("renewal: %w", err))
		return false
	}
	if off.LeaseID != req.LeaseID || off.DriverChecksum != req.CurrentChecksum || off.HasDriver {
		r.wrongf("renewal of lease %d offered %+v", req.LeaseID, off)
		return false
	}
	return true
}

// now and child are the tracer's, or no-ops on the untraced run.
func (r *runner) now() int64 {
	if r.tr == nil {
		return 0
	}
	return r.tr.now()
}

func (r *runner) child(w int, name string, start int64) {
	if r.tr != nil {
		r.tr.child(w, name, start, r.tr.now())
	}
}

// mixSnap is the counters the mix-phase per-layer metrics are deltas
// of.
type mixSnap struct {
	stmts    int64
	dbms     dbmsCounts
	versions []uint64
	ctr      core.ServerCounters
	rt       []metrics.Sample
}

var runtimeMetrics = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func (r *runner) snap() mixSnap {
	s := mixSnap{dbms: r.d.dbmsCounts(), versions: r.d.leaseVersions(), ctr: r.d.counters()}
	if r.ts != nil {
		s.stmts = r.ts.stmts.Load()
	}
	s.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

// timed is one open-loop sample: when it was due and its latency.
type timed struct {
	due time.Duration
	us  float64
}

// openLoop offers the mix at the workload's fixed rate for d. Op i is
// due at start + i/rate on worker i mod workers, and its latency runs
// from that moment: each worker is a queue with one request in
// service, so a stall delays every op queued behind it. The queue is
// replayed from measured service times with ideal dispatch, because
// Go timers wake up to a millisecond late; that lateness is the
// generator's, and is reported apart as bench.gen_lag_p99_us.
func (r *runner) openLoop(d time.Duration) {
	n := int(r.w.rate * d.Seconds())
	type local struct{ renew, discover, lag []timed }
	out := make([]local, workers)
	start := time.Now().Add(time.Millisecond)
	parallel(func(w int) {
		s := r.stream(phaseOpen, w)
		l := &out[w]
		var free time.Duration // when the replayed queue frees, from start
		idle := start          // when this worker finished its last op
		for i := w; i < n; i += workers {
			o := s.next()
			due := time.Duration(float64(i) * 1e9 / r.w.rate)
			if wait := time.Until(start.Add(due)); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			ok := r.mixOp(w, o)
			service := time.Since(sent)
			free = max(free, due) + service
			// The generator's own lateness: how long after the op was
			// due, and the worker free, it was sent.
			ready := start.Add(due)
			if idle.After(ready) {
				ready = idle
			}
			idle = sent.Add(service)
			l.lag = append(l.lag, timed{due, us(sent.Sub(ready))})
			if !ok {
				continue
			}
			if o.kind == kindDiscover {
				l.discover = append(l.discover, timed{due, us(free - due)})
			} else {
				l.renew = append(l.renew, timed{due, us(free - due)})
			}
		}
	})
	r.m.openS += time.Since(start).Seconds()
	var renew, discover, lag []timed
	for _, l := range out {
		renew = append(renew, l.renew...)
		discover = append(discover, l.discover...)
		lag = append(lag, l.lag...)
	}
	r.m.renewUs = appendByDue(r.m.renewUs, renew)
	r.m.discoverUs = appendByDue(r.m.discoverUs, discover)
	r.m.lagUs = appendByDue(r.m.lagUs, lag)
	r.m.openOK += len(renew) + len(discover)
}

func appendByDue(dst []float64, xs []timed) []float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i].due < xs[j].due })
	for _, x := range xs {
		dst = append(dst, x.us)
	}
	return dst
}

// peakWindow is how many completions one closed-loop throughput
// sample spans.
const peakWindow = 500

// closedLoop runs the mix back to back on every worker for d and
// records the throughput of each run of peakWindow completions.
func (r *runner) closedLoop(d time.Duration) (ops, renews int) {
	done := make([][]time.Duration, workers)
	counts := make([][2]int, workers)
	start := time.Now()
	parallel(func(w int) {
		s := r.stream(phaseClosed, w)
		for {
			o := s.next()
			ok := r.mixOp(w, o)
			at := time.Since(start)
			if ok {
				counts[w][o.kind]++
			}
			if at >= d {
				return
			}
			if ok {
				done[w] = append(done[w], at)
			}
		}
	})
	var all []time.Duration
	for _, d := range done {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	win := min(peakWindow, len(all)-1) // a short slice is one window
	for lo := 0; win > 0 && lo+win < len(all); lo += win {
		span := all[lo+win] - all[lo]
		r.m.peakWindows = append(r.m.peakWindows, float64(win)/span.Seconds())
	}
	for _, c := range counts {
		ops += c[0] + c[1]
		renews += c[kindRenew]
	}
	r.m.closedOK += ops
	return ops, renews
}

// mix runs one open and one closed loop slice and adds their counter
// deltas to the mix totals.
func (r *runner) mix(open, closed time.Duration) {
	b := r.snap()
	before := r.m.openOK
	renewsBefore := len(r.m.renewUs)
	r.openLoop(open)
	ops, renews := r.closedLoop(closed)
	a := r.snap()
	x := &r.m.mix
	ops += r.m.openOK - before
	renews += len(r.m.renewUs) - renewsBefore
	x.ops += ops
	x.renews += renews
	x.stmts += a.stmts - b.stmts
	if r.d.kind == deployCluster {
		// Member stores cannot be wrapped; the hubs count every
		// statement a member's store issues.
		x.stmts += a.dbms.stmts - b.dbms.stmts
	}
	x.dbms = x.dbms.plus(a.dbms.minus(b.dbms))
	if x.versions == nil {
		x.versions = make([]uint64, len(a.versions))
	}
	for i := range a.versions {
		x.versions[i] += a.versions[i] - b.versions[i]
	}
	x.redirects += a.ctr.Redirects - b.ctr.Redirects
	for i := range x.rt {
		x.rt[i] += sampleFloat(a.rt[i]) - sampleFloat(b.rt[i])
	}
	r.phaseCounts("mix", b.dbms, renews, ops-renews, 0)
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// rolloutRound publishes version k+2 and has cohort k of the seeded
// rollout clients each renew once and fetch the upgrade; its duration
// runs from the publish until the last client holds the new version.
// Untimed, the clients then ack the new checksum, so the server drops
// the staged transfers, and the version is retired.
func (r *runner) rolloutRound(k int, cohort []int) {
	before, beforeDBMS := r.d.counters(), r.d.dbmsCounts()
	t0 := time.Now()
	next, err := r.d.publish(r.key, r.seed, k+2)
	if err != nil {
		r.fail(err)
		return
	}
	type local struct {
		upgrade, fetch []float64
		last           time.Time
	}
	out := make([]local, workers)
	parallel(func(w int) {
		l := &out[w]
		for j := w; j < len(cohort); j += workers {
			r.attempted.Add(1)
			start := time.Now()
			fetched, ok := r.upgradeOne(w, cohort[j], next)
			end := time.Now()
			if ok {
				l.upgrade = append(l.upgrade, float64(end.Sub(start))/1e6)
				l.fetch = append(l.fetch, us(fetched))
				l.last = end
			}
		}
	})
	var last time.Time
	var upgrades []float64
	for _, l := range out {
		upgrades = append(upgrades, l.upgrade...)
		r.m.fetchUs = append(r.m.fetchUs, l.fetch...)
		if l.last.After(last) {
			last = l.last
		}
	}
	r.m.upgradeMs = append(r.m.upgradeMs, upgrades)
	r.m.upgradeOK += len(upgrades)
	r.m.rolloutS = append(r.m.rolloutS, last.Sub(t0).Seconds())
	after := r.d.counters()
	r.m.upgradeBytes += after.BytesOut - before.BytesOut
	if got := after.RenewUpgrades - before.RenewUpgrades; got != int64(len(cohort)) {
		r.wrongf("rollout round %d ended with %d RenewUpgrades for %d clients", k, got, len(cohort))
	}
	parallel(func(w int) {
		for j := w; j < len(cohort); j += workers {
			i := cohort[j]
			r.attempted.Add(1)
			r.renewAt(w, op{}, int(r.owners[i]), r.request(i, r.leases[i], next.checksum))
		}
	})
	r.retire(next)
	r.phaseCounts("upgrade", beforeDBMS, len(upgrades), len(cohort), 1)
}

// retire deletes a rolled-out version, so v1 is the newest driver again
// for the mix that follows, and has every member reload its catalog
// with one DISCOVER, which must offer v1 again.
func (r *runner) retire(v image) {
	if err := r.d.servers[0].DeleteDriver(v.id); err != nil {
		r.fail(fmt.Errorf("retire driver %d: %w", v.id, err))
		return
	}
	for m := range r.d.addrs {
		r.attempted.Add(1)
		c, err := r.client(0, m)
		var off core.Offer
		if err == nil {
			off, err = c.Discover(r.request(r.mixClients[0], 0, ""))
		}
		if err != nil {
			r.settle(0, m, err)
			r.fail(fmt.Errorf("discover after retire: %w", err))
		} else if off.DriverChecksum != r.v1.checksum {
			r.wrongf("member %d offers %+v after the rollout version was retired", m, off)
		}
	}
}

// upgradeOne renews client i (still on v1) and fetches the image it is
// offered. It returns the fetch time.
func (r *runner) upgradeOne(w, i int, next image) (time.Duration, bool) {
	lease, owner := r.leases[i], int(r.owners[i])
	var opID, root, t0 int64
	if r.tr != nil {
		opID, root = r.tr.open(w, lease, r.ids[i])
		t0 = r.tr.now()
	}
	defer func() {
		if r.tr != nil {
			r.tr.close(w, opID, root, "upgrade", t0, lease, r.ids[i])
		}
	}()
	c, err := r.client(w, owner)
	var off core.Offer
	if err == nil {
		off, err = c.Request(r.request(i, lease, r.v1.checksum))
	}
	r.child(w, "core.upgrade_renew", t0)
	if err != nil {
		r.settle(w, owner, err)
		r.fail(fmt.Errorf("upgrade renewal: %w", err))
		return 0, false
	}
	if !off.HasDriver || off.LeaseID != lease || off.DriverChecksum != next.checksum || int(off.Size) != next.size {
		r.wrongf("upgrade renewal of lease %d offered %+v", lease, off)
		return 0, false
	}
	tf, start := r.now(), time.Now()
	n, err := c.FetchFile(lease)
	took := time.Since(start)
	r.child(w, "wire.fetch", tf)
	if err != nil {
		r.settle(w, owner, err)
		r.fail(fmt.Errorf("upgrade fetch: %w", err))
		return 0, false
	}
	if n != next.size {
		r.wrongf("upgrade fetch of lease %d returned %d bytes, the image is %d", lease, n, next.size)
		return 0, false
	}
	return took, true
}

// checkMembers verifies that every warm lease is still present on
// every cluster member.
func (r *runner) checkMembers() {
	if r.d.fleet == nil {
		return
	}
	for m, db := range r.d.leaseDBs {
		res, err := db.Exec("SELECT lease_id FROM " + core.LeasesTable)
		if err != nil {
			r.fail(fmt.Errorf("member %d lease scan: %w", m, err))
			continue
		}
		have := make(map[int64]bool, len(res.Rows))
		for _, row := range res.Rows {
			have[row[0].Int()] = true
		}
		for _, id := range r.leases {
			if !have[int64(id)] {
				r.wrongf("lease %d missing on member %d", id, m)
				break
			}
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// run executes every phase. It returns an error only when the run
// could not be set up; failed requests and checks are counted. The
// time-boxed phases are split over rounds, so each metric samples the
// whole run rather than one stretch of it. The setups that only time
// setup_s come after the measured phases, so nothing left from them
// runs beside the measured deployment.
func (r *runner) run() error {
	defer r.teardown()
	r.startHeapSampler()
	err := r.setup()
	if err == nil {
		r.measure()
	}
	r.stopHeap()
	if err != nil {
		return err
	}
	for k := 1; k < r.setups; k++ {
		r.teardown()
		runtime.GC() // start each timed setup from a collected heap, as the first
		if err := r.setup(); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) measure() {
	mix, cohorts := partition(r.seed, len(r.leases), rolloutRounds, r.w.cohort)
	r.mixClients = mix
	for _, phase := range []int{phaseOpen, phaseClosed} {
		for w := 0; w < workers; w++ {
			r.streams[[2]int{phase, w}] = newOpStream(r.seed, phase, w, len(mix), len(r.d.addrs))
		}
	}
	slice := func(share float64) time.Duration {
		return time.Duration(share * r.seconds / mixRounds * float64(time.Second))
	}
	// Each timed slice starts from a collected heap, so the garbage of
	// one phase (a bootstrap slice allocates several times what a mix
	// slice does) is not collected on the next phase's clock. Rollout
	// rounds are spread over the run like the other phases.
	every := mixRounds / rolloutRounds
	for k := 0; k < mixRounds; k++ {
		runtime.GC()
		r.bootstraps(k, slice(bootShare))
		runtime.GC()
		r.mix(slice(openShare), slice(closedShare))
		if (k+1)%every == 0 {
			runtime.GC()
			r.rolloutRound(k/every, cohorts[k/every])
		}
	}
	r.checkMembers()
	if r.d.cs != nil {
		r.m.redials = r.d.cs.Stats().Redials
	}
}
