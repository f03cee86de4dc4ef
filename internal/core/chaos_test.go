package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
)

// chaosSeed resolves the soak's seed: CHAOS_SEED reproduces a failed
// run exactly, otherwise each run explores a fresh schedule. The seed
// is always logged so any failure is replayable.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		t.Logf("chaos seed %d (from CHAOS_SEED)", s)
		return s
	}
	s := time.Now().UnixNano()
	t.Logf("chaos seed %d (rerun with CHAOS_SEED=%d)", s, s)
	return s
}

// chaosDuration resolves the storm length: short and default runs stay
// CI-friendly; CHAOS_DURATION (a Go duration) stretches the soak for
// `make chaos` seed sweeps.
func chaosDuration(t *testing.T) time.Duration {
	t.Helper()
	if v := os.Getenv("CHAOS_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("CHAOS_DURATION=%q: %v", v, err)
		}
		return d
	}
	if testing.Short() {
		return 800 * time.Millisecond
	}
	return 1500 * time.Millisecond
}

// TestChaosSoak is the capstone of the failure contract: a small fleet
// of bootloaders bootstraps and renews against a license-mode server
// through per-bootloader faultnet proxies while the schedule — derived
// entirely from one logged seed — injects connection resets at byte-
// and frame-boundaries, partitions and heals links, and restarts the
// server mid-storm. Throughout and afterwards it asserts the
// invariants the paper's robustness story rests on:
//
//   - the §5.4.2 license cap is never exceeded (sampled continuously,
//     and no driver ever carries two live leases);
//   - the store stays consistent: every lease row references an
//     existing driver and carries a sane time window (no partial
//     grant writes survive a reset);
//   - a bootloader cut off from the control plane demonstrably keeps
//     serving its loaded driver (§4.1.3) — the degradation pin;
//   - after the network heals, the fleet converges: every bootloader
//     either renews successfully or was honestly revoked by a license
//     denial (a legal §5.4.2 outcome under expiry pressure);
//   - nothing leaks: goroutines return to the pre-test baseline.
func TestChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	dur := chaosDuration(t)
	base := runtime.NumGoroutine()

	// --- the world: target DBMS, license-mode server, driver images ---
	appDB := sqlmini.NewDB()
	appDB.MustExec(`CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)`)
	appDB.MustExec(`INSERT INTO items (id, name) VALUES (1, 'widget')`)
	target := dbms.NewServer("prod-db",
		dbms.WithUser("app", "app-pw"), dbms.WithProtocolVersion(1))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(target.Stop)
	appURL := "dbms://" + target.Addr() + "/prod"

	const fleet = 4
	const licenses = fleet + 2 // headroom: lost-offer orphan leases live until expiry

	store := NewLocalStore(sqlmini.NewDB())
	srv, err := NewServer("chaos", store,
		WithLicenseMode(),
		WithDefaultLease(120*time.Millisecond),
		WithHandshakeTimeout(300*time.Millisecond),
		WithWriteTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	addr := srv.Addr()

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	for i := 0; i < licenses; i++ {
		payload := make([]byte, 256)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		img := &driverimg.Image{
			Manifest: driverimg.Manifest{
				Kind:            dbms.DriverKind,
				API:             dbver.APIOf("JDBC", 3, 0),
				Version:         dbver.V(1, 0, i),
				ProtocolVersion: 1,
				Options:         map[string]string{"user": "app", "password": "app-pw"},
			},
			Payload: payload,
		}
		if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
			t.Fatal(err)
		}
	}

	// --- the fleet, each behind its own fault-injecting proxy ---
	planner := func(i int, rng *rand.Rand) faultnet.Plan {
		switch rng.Intn(6) {
		case 0:
			return faultnet.Plan{Up: faultnet.Faults{CutAfterFrames: 1 + rng.Intn(4)}}
		case 1:
			return faultnet.Plan{Down: faultnet.Faults{CutAfterBytes: int64(20 + rng.Intn(400))}}
		default:
			return faultnet.Plan{}
		}
	}
	proxies := make([]*faultnet.Proxy, fleet)
	bls := make([]*Bootloader, fleet)
	for i := range proxies {
		p, err := faultnet.NewProxy(addr, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		p.SetPlanner(planner)
		t.Cleanup(p.Close)
		proxies[i] = p
		b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
			[]string{p.Addr()}, rt,
			WithCredentials("app", "app-pw"),
			WithClientID(fmt.Sprintf("chaos-%d", i)),
			WithDialTimeout(400*time.Millisecond),
			WithRetryInterval(15*time.Millisecond))
		t.Cleanup(b.Close)
		bls[i] = b
	}

	// Bootstrap through the fire: a doomed connection just means another
	// attempt on the shared backoff schedule.
	conns := make([]client.Conn, fleet)
	for i, b := range bls {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := b.Connect(appURL, nil)
			if err == nil {
				conns[i] = c
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bootloader %d never bootstrapped: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// --- degradation pin (§4.1.3): full control-plane partition must
	// not touch the data plane ---
	proxies[0].Partition()
	if err := bls[0].ForceRenew("prod"); err == nil {
		t.Fatal("renewal succeeded through a fully partitioned control plane")
	}
	// The pin queries a connection opened under the partition. One opened
	// at bootstrap may already have been retired legitimately: the
	// bootloader renews its 120ms lease while the rest of the fleet
	// bootstraps through the faults, and a license-mode rebootstrap can
	// swap in another driver before the partition starts.
	cut, err := bls[0].Connect(appURL, nil)
	if err != nil {
		t.Fatalf("cut-off bootloader must keep handing out its driver (§4.1.3): %v", err)
	}
	t.Cleanup(func() { _ = cut.Close() })
	for j := 0; j < 10; j++ {
		if _, err := cut.Query(`SELECT name FROM items WHERE id = 1`); err != nil {
			t.Fatalf("cut-off bootloader must keep serving its driver (§4.1.3), query %d failed: %v", j, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	proxies[0].Heal()

	// --- continuous invariant monitor + lease reaper ---
	var monWG sync.WaitGroup
	monStop := make(chan struct{})
	var capViolations, maxInUse atomic.Int32
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-tick.C:
			}
			n, err := srv.LicensesInUse()
			if err != nil {
				continue
			}
			if int32(n) > maxInUse.Load() {
				maxInUse.Store(int32(n))
			}
			if n > licenses {
				capViolations.Add(1)
			}
		}
	}()
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-tick.C:
			}
			_, _ = srv.ReapExpiredLeases()
		}
	}()

	// --- application workload riding the storm; like any real client it
	// redials through the bootloader when a driver swap or revocation
	// retires its connection ---
	var qOK, qErr atomic.Int64
	wlStop := make(chan struct{})
	var wlWG sync.WaitGroup
	for i := 0; i < fleet; i++ {
		wlWG.Add(1)
		go func(i int) {
			defer wlWG.Done()
			conn := conns[i]
			for {
				select {
				case <-wlStop:
					return
				default:
				}
				if conn == nil {
					c, err := bls[i].Connect(appURL, nil)
					if err != nil {
						qErr.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					}
					conn = c
				}
				if _, err := conn.Query(`SELECT name FROM items WHERE id = 1`); err != nil {
					qErr.Add(1)
					_ = conn.Close()
					conn = nil
				} else {
					qOK.Add(1)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}

	// --- the storm: seed-driven partition/heal cycles with a server
	// restart in the middle ---
	rng := rand.New(rand.NewSource(seed))
	stormEnd := time.Now().Add(dur)
	restartAt := time.Now().Add(dur / 2)
	restarted := false
	for time.Now().Before(stormEnd) {
		p := proxies[rng.Intn(fleet)]
		switch rng.Intn(4) {
		case 0:
			p.Partition()
		case 1:
			p.PartitionOneWay(faultnet.Down)
		default:
			p.Heal()
		}
		if !restarted && time.Now().After(restartAt) {
			restarted = true
			srv.Stop()
			time.Sleep(30 * time.Millisecond)
			for try := 0; ; try++ {
				if err := srv.Start(addr); err == nil {
					break
				} else if try > 50 {
					t.Fatalf("server restart at %s failed: %v", addr, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		time.Sleep(time.Duration(15+rng.Intn(40)) * time.Millisecond)
	}
	if !restarted {
		t.Fatal("storm too short: the mid-storm server restart never ran")
	}
	for _, p := range proxies {
		p.Heal()
	}

	// --- convergence: every bootloader renews or was honestly revoked ---
	converged, revoked := 0, 0
	for i, b := range bls {
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := b.ForceRenew("prod")
			if err == nil {
				converged++
				break
			}
			if errors.Is(err, ErrNoDriverAvailable) {
				// Terminal revocation: a license denial during the storm
				// is a legal §5.4.2 outcome, not a liveness failure.
				revoked++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bootloader %d neither converged nor revoked: %v", i, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	if converged == 0 {
		t.Fatal("no bootloader converged after the network healed")
	}

	close(wlStop)
	wlWG.Wait()
	close(monStop)
	monWG.Wait()

	if n := capViolations.Load(); n > 0 {
		t.Errorf("license cap exceeded in %d samples: %d in use > %d licenses", n, maxInUse.Load(), licenses)
	}
	if qOK.Load() == 0 {
		t.Error("application workload made no progress at all during the storm")
	}

	// --- store consistency: no partial grant writes survived ---
	res, err := store.Exec(`SELECT driver_id FROM ` + DriversTable)
	if err != nil {
		t.Fatal(err)
	}
	driverIDs := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		driverIDs[row[0].Int()] = true
	}
	leases, err := srv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	liveByDriver := make(map[int64]int)
	now := time.Now()
	for _, l := range leases {
		if !driverIDs[l.DriverID] {
			t.Errorf("lease %d references driver %d which does not exist", l.LeaseID, l.DriverID)
		}
		if !l.ExpiresAt.After(l.GrantedAt) {
			t.Errorf("lease %d has inverted window: granted %v expires %v", l.LeaseID, l.GrantedAt, l.ExpiresAt)
		}
		if !l.Released && l.ExpiresAt.After(now) {
			liveByDriver[l.DriverID]++
		}
	}
	for id, n := range liveByDriver {
		if n > 1 {
			t.Errorf("driver %d holds %d live leases; license mode allows one", id, n)
		}
	}

	t.Logf("soak: %d queries ok, %d failed; max licenses in use %d/%d; fleet %d converged / %d revoked; %d lease rows",
		qOK.Load(), qErr.Load(), maxInUse.Load(), licenses, converged, revoked, len(leases))

	// --- teardown and goroutine-leak check ---
	for _, c := range conns {
		_ = c.Close()
	}
	for _, b := range bls {
		b.Close()
	}
	for _, p := range proxies {
		p.Close()
	}
	srv.Stop()
	target.Stop()
	settle := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(settle) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live vs %d at start\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
