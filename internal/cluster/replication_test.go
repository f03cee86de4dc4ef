package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// fakeClock is a settable time source shared by every member, so lease
// timestamps are deterministic and expiry can be forced.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// logSink collects a fleet's diagnostics.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) matching(sub string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			out = append(out, s)
		}
	}
	return out
}

// replicatedTables lists the replicated schema tables with the primary
// key each dump orders by.
var replicatedTables = []struct{ name, pk string }{
	{core.DriversTable, "driver_id"},
	{core.PermissionTable, "permission_id"},
	{core.LeasesTable, "lease_id"},
}

// dumpDB renders every replicated table of db, rows in primary-key
// order, as one comparable string.
func dumpDB(t *testing.T, db *sqlmini.DB) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range replicatedTables {
		//lint:scan-ok test introspection: full dump of a few-row table
		res, err := db.Query("SELECT * FROM " + tb.name + " ORDER BY " + tb.pk)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %v\n", tb.name, res.Cols)
		for _, row := range res.Rows {
			fmt.Fprintf(&sb, "  %v\n", row)
		}
	}
	return sb.String()
}

// replicationFleet starts a 3-member fleet on a shared fake clock,
// collecting its logs.
func replicationFleet(t *testing.T) (*Fleet, *fakeClock, *logSink) {
	t.Helper()
	clk := &fakeClock{}
	clk.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	logs := &logSink{}
	cfg := testFleetConfig(3)
	cfg.Logf = logs.logf
	cfg.ServerOptions = func(int) []core.ServerOption {
		return []core.ServerOption{core.WithClock(clk.now)}
	}
	return newTestFleet(t, cfg), clk, logs
}

// hubCounts sums QueriesServed and StmtExecsServed over every hub.
func hubCounts(f *Fleet) (queries, stmtExecs int64) {
	for _, h := range f.Hubs {
		queries += h.QueriesServed()
		stmtExecs += h.StmtExecsServed()
	}
	return queries, stmtExecs
}

// TestReplicationEquivalence drives every kind of lease and catalog
// mutation through the members that own it and checks that statement
// replication leaves all three stores row-for-row identical, that a
// detached member receives nothing more, and that the hubs count one
// statement per mutation and no prepared-handle executions.
func TestReplicationEquivalence(t *testing.T) {
	f, clk, logs := replicationFleet(t)
	v1 := seedDriver(t, f, 0, "", time.Hour)

	// One lease granted at each owner.
	type lease struct {
		owner int
		lc    *core.LeaseClient
		req   core.Request
	}
	leases := make([]lease, len(f.Servers))
	for m := range f.Servers {
		lc, err := core.DialLeaseClient(f.Servers[m].Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		req := testRequest("app", clientOwnedBy(t, f, m))
		offer, err := lc.Request(req)
		if err != nil {
			t.Fatalf("grant at owner %d: %v", m, err)
		}
		req.LeaseID, req.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
		leases[m] = lease{owner: m, lc: lc, req: req}
	}

	// Renewals: each is exactly one statement, counted once, at its owner.
	for _, l := range leases {
		clk.advance(time.Second)
		q0, _ := hubCounts(f)
		owner0 := f.Hubs[l.owner].QueriesServed()
		if _, err := l.lc.Request(l.req); err != nil {
			t.Fatalf("renew at owner %d: %v", l.owner, err)
		}
		q1, _ := hubCounts(f)
		if q1-q0 != 1 || f.Hubs[l.owner].QueriesServed()-owner0 != 1 {
			t.Fatalf("renewal at owner %d counted %d hub statements (%d at the owner), want 1",
				l.owner, q1-q0, f.Hubs[l.owner].QueriesServed()-owner0)
		}
	}

	// An upgrade offered at one owner, then acknowledged.
	v2, err := f.Servers[1].AddDriver(testImage(dbver.V(2, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Servers[2].SetPermission(core.Permission{
		DriverID: v2, LeaseTime: time.Hour,
		RenewPolicy: core.RenewUpgrade, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	up := leases[0]
	clk.advance(time.Second)
	offer, err := up.lc.Request(up.req)
	if err != nil {
		t.Fatal(err)
	}
	if !offer.HasDriver || offer.DriverChecksum == up.req.CurrentChecksum {
		t.Fatalf("renewal after a newer driver offered %+v, want an upgrade", offer)
	}
	up.req.CurrentChecksum = offer.DriverChecksum
	if ack, err := up.lc.Request(up.req); err != nil || ack.HasDriver {
		t.Fatalf("upgrade ack = (%+v, %v), want a no-change renewal", ack, err)
	}

	// A release at its owner, a catalog delete, and an expiry sweep.
	if err := leases[1].lc.Release(leases[1].req.LeaseID); err != nil {
		t.Fatal(err)
	}
	if err := f.Servers[2].DeleteDriver(v1); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Hour)
	if n, err := f.Servers[1].ReapExpiredLeases(); err != nil || n != 2 {
		t.Fatalf("reap = (%d, %v), want the 2 unreleased leases", n, err)
	}

	want := dumpDB(t, f.DBs[0])
	for i := 1; i < len(f.DBs); i++ {
		if got := dumpDB(t, f.DBs[i]); got != want {
			t.Fatalf("member %d diverged from member 0:\n%s\nvs\n%s", i, got, want)
		}
	}
	if _, stmtExecs := hubCounts(f); stmtExecs != 0 {
		t.Fatalf("hubs counted %d prepared executions, want 0", stmtExecs)
	}
	if bad := logs.matching("replicate to"); len(bad) != 0 {
		t.Fatalf("replication failed on a healthy fleet: %q", bad)
	}

	// A killed member is detached: later mutations never reach it.
	f.Kill(2)
	frozen, frozenVer := dumpDB(t, f.DBs[2]), f.DBs[2].ChangeSeq()
	if _, err := f.Servers[0].AddDriver(testImage(dbver.V(3, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	if got := dumpDB(t, f.DBs[2]); got != frozen || f.DBs[2].ChangeSeq() != frozenVer {
		t.Fatalf("killed member's store changed after detach:\n%s\nvs\n%s", got, frozen)
	}
	if a, b := dumpDB(t, f.DBs[0]), dumpDB(t, f.DBs[1]); a != b {
		t.Fatalf("survivors diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestReplicaFailureDoesNotFailOwner pins the error contract of
// replication: a statement that fails on one replica (here an INSERT
// whose referenced driver row that replica lacks) is logged, reaches
// the other replica, and the owner's call still succeeds.
func TestReplicaFailureDoesNotFailOwner(t *testing.T) {
	f, _, logs := replicationFleet(t)
	id, err := f.Servers[0].AddDriver(testImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the driver row from member 2 alone, behind the mesh's back.
	if _, err := f.DBs[2].Exec("DELETE FROM "+core.DriversTable+" WHERE driver_id = ?", id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Servers[0].SetPermission(core.Permission{
		DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: core.RenewUpgrade, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		t.Fatalf("owner's call failed on a replica error: %v", err)
	}
	countPerms := func(db *sqlmini.DB) int {
		//lint:scan-ok test introspection: counting rows in a 1-row table
		res, err := db.Query("SELECT permission_id FROM " + core.PermissionTable)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if got := []int{countPerms(f.DBs[0]), countPerms(f.DBs[1]), countPerms(f.DBs[2])}; got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("permission rows per member = %v, want [1 1 0]", got)
	}
	failed := logs.matching("replicate to " + f.Hubs[2].Name())
	if len(failed) != 1 || !strings.Contains(failed[0], "foreign key") {
		t.Fatalf("replica failure logs = %q, want one foreign-key failure for member 2", failed)
	}
}

// renewalSQL is the statement a no-change renewal runs (core's
// renewNoChangeSQL).
const renewalSQL = `UPDATE ` + core.LeasesTable + `
	SET expires_at = $exp, renewals = renewals + 1, driver_id = $drv
	WHERE lease_id = $id AND released = FALSE`

// renewalAllocs is the allocation budget of one renewal UPDATE through
// a member hub: the owner's execution plus both replica applies, each
// on its cached statement handle. A per-call parse, classification or
// wire-value marshal on that path shows up here.
const renewalAllocs = 51

func TestHubRenewalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f, clk, _ := replicationFleet(t)
	drv := seedDriver(t, f, 0, "", time.Hour)
	owner := 1
	offer, err := grantVia(f.Servers[owner].Addr(), testRequest("app", clientOwnedBy(t, f, owner)))
	if err != nil {
		t.Fatal(err)
	}
	hub, db := f.Hubs[owner], f.cfg.Database
	args := sqlmini.Args{"exp": clk.now().Add(time.Hour), "drv": drv, "id": int64(offer.LeaseID)}
	renew := func() {
		res, err := hub.Execute(db, renewalSQL, args)
		if err != nil || res.Affected != 1 {
			t.Fatalf("renewal = (%v, %v), want 1 row", res, err)
		}
	}
	renew() // first use parses and prepares on every member
	q0 := hub.QueriesServed()
	got := testing.AllocsPerRun(200, renew)
	if got > renewalAllocs {
		t.Fatalf("hub renewal allocates %.0f times per call, budget %d", got, renewalAllocs)
	}
	t.Logf("hub renewal: %.0f allocs per call (budget %d)", got, renewalAllocs)
	if n := hub.QueriesServed() - q0; n != 201 {
		t.Fatalf("hub counted %d statements for 201 renewals", n)
	}
	for i := range f.DBs {
		if v := f.DBs[i].TableVersion(core.LeasesTable); v != f.DBs[0].TableVersion(core.LeasesTable) {
			t.Fatalf("member %d leases version %d, member 0 %d", i, v, f.DBs[0].TableVersion(core.LeasesTable))
		}
	}
}
