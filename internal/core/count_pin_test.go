package core

import (
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// The statement-budget pins: the round-trip-counting store wrapper
// asserts exactly how many statements each hot path is allowed to
// issue, so a regression that quietly re-introduces per-row SQL (the
// reap's old N+1 confirmation loop) fails here rather than in a
// benchmark graph.

func pinFixture(t *testing.T) (*Server, *CountingGenerationStore, *sqlmini.DB) {
	t.Helper()
	db := sqlmini.NewDB()
	cs := NewCountingGenerationStore(NewLocalStore(db))
	now := time.Unix(50_000, 0).UTC()
	srv, err := NewServer("pin", cs, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	return srv, cs, db
}

// TestRenewalStatementBudget: a no-change renewal on a catalog-capable
// store is exactly ONE statement — the guarded UPDATE.
func TestRenewalStatementBudget(t *testing.T) {
	srv, cs, _ := pinFixture(t)
	offer, perr := srv.grant(catalogRequest(), false)
	if perr != nil {
		t.Fatal(perr)
	}
	renew := catalogRequest()
	renew.LeaseID = offer.LeaseID
	renew.CurrentChecksum = offer.DriverChecksum
	// Warm the catalog + prepared handles, then measure.
	if _, perr := srv.grant(renew, false); perr != nil {
		t.Fatal(perr)
	}
	cs.Reset()
	for i := 0; i < 5; i++ {
		if _, perr := srv.grant(renew, false); perr != nil {
			t.Fatal(perr)
		}
	}
	if got := cs.Statements(); got != 5 {
		t.Fatalf("5 no-change renewals issued %d statements, want exactly 5 (1 each)", got)
	}
}

// TestReapStatementBudget: the expiry sweep is exactly ONE statement
// (the sweep UPDATE — staged-blob reclamation is in-memory), no matter
// how many leases exist or expire.
func TestReapStatementBudget(t *testing.T) {
	for _, leases := range []int{0, 1, 500} {
		srv, cs, db := pinFixture(t)
		now := srv.clock()
		for i := 0; i < leases; i++ {
			db.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database,
				user, client_id, granted_at, expires_at, released, renewals)
				VALUES ($id, 1, 'prod', 'app', 'c', $g, $e, FALSE, 0)`,
				sqlmini.Args{"id": int64(1000 + i), "g": now.Add(-2 * time.Hour),
					"e": now.Add(-time.Hour)})
		}
		cs.Reset()
		n, err := srv.ReapExpiredLeases()
		if err != nil {
			t.Fatal(err)
		}
		if n != leases {
			t.Fatalf("swept %d of %d", n, leases)
		}
		if got := cs.Statements(); got != 1 {
			t.Fatalf("reap at %d leases issued %d statements, want exactly 1", leases, got)
		}
		if got := cs.RoundTrips(); got != 1 {
			t.Fatalf("reap at %d leases cost %d round trips, want 1", leases, got)
		}
	}
}

// TestReapDropsOnlyDeadPending: the collapsed sweep must keep the
// staged blob of a lease that renewed (future expiry) and drop blobs
// of swept leases — the race the old per-id confirmation loop guarded.
func TestReapDropsOnlyDeadPending(t *testing.T) {
	srv, _, db := pinFixture(t)
	now := srv.clock()
	// Lease 1: expired, staged → must be dropped. Lease 2: live with a
	// staged transfer (mid-bootstrap) → must be kept.
	for i, exp := range []time.Time{now.Add(-time.Minute), now.Add(time.Hour)} {
		db.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database,
			user, client_id, granted_at, expires_at, released, renewals)
			VALUES ($id, 1, 'prod', 'app', 'c', $g, $e, FALSE, 0)`,
			sqlmini.Args{"id": int64(i + 1), "g": now.Add(-2 * time.Hour), "e": exp})
		srv.stageTransfer(uint64(i+1), []byte{byte(i)}, exp)
	}
	if n, err := srv.ReapExpiredLeases(); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	srv.pendingMu.Lock()
	_, deadKept := srv.pending[1]
	_, liveKept := srv.pending[2]
	srv.pendingMu.Unlock()
	if deadKept {
		t.Fatal("swept lease's staged blob must be dropped")
	}
	if !liveKept {
		t.Fatal("live lease's staged blob must survive the sweep")
	}
}

// TestTransferStatementBudget: staging a catalog transfer is exactly
// ONE statement — the primary-key existence probe — and stages the
// catalog's own blob, so a bootstrap grant costs the probe plus the
// lease INSERT.
func TestTransferStatementBudget(t *testing.T) {
	srv, cs, _ := pinFixture(t)
	if _, perr := srv.grant(catalogRequest(), false); perr != nil { // warm catalog + handles
		t.Fatal(perr)
	}
	g, perr := srv.match(catalogRequest())
	if perr != nil {
		t.Fatal(perr)
	}
	cs.Reset()
	if perr := srv.materializeBlob(g); perr != nil {
		t.Fatal(perr)
	}
	if got := cs.Statements(); got != 1 {
		t.Fatalf("staging a transfer issued %d statements, want exactly 1", got)
	}
	cat, _ := srv.catalogSnapshot()
	if ent := cat.byID[g.driverID]; len(g.blob) == 0 || &g.blob[0] != &ent.blob[0] {
		t.Fatal("the transfer must stage the catalog entry's blob, not a copy")
	}

	cs.Reset()
	if _, perr := srv.grant(catalogRequest(), false); perr != nil {
		t.Fatal(perr)
	}
	if got := cs.Statements(); got != 2 {
		t.Fatalf("a bootstrap grant issued %d statements, want exactly 2 (probe + lease INSERT)", got)
	}
}
