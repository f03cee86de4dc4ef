package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// The server keeps one copy of each driver content: the catalog entry's
// blob, which every staged transfer shares. These tests pin that
// sharing on the external deployment (Figure 2), where each catalog
// load decodes the rows afresh from the wire, and the consistency it
// buys: the staged bytes are always the ones the offered checksum
// describes.

// externalCatalogServer starts a legacy DBMS and a Drivolution server
// whose schema lives in it, reached through a v2 ConnStore session, so
// matchmaking runs on the catalog.
func externalCatalogServer(t *testing.T) *Server {
	t.Helper()
	legacy := dbms.NewServer("legacy-db", dbms.WithUser("drivolution", "svc-pw"))
	legacy.AddDatabase("meta", sqlmini.NewDB())
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Stop)
	legacyDriver := dbms.NewNativeDriver(dbver.V(1, 0, 0), 2)
	store := NewConnStore(func() (client.Conn, error) {
		return legacyDriver.Connect("dbms://"+legacy.Addr()+"/meta",
			client.Props{"user": "drivolution", "password": "svc-pw"})
	})
	t.Cleanup(store.Close)
	srv, err := NewServer("external-drivolution", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// sharedImage is a catalog image with a payload large enough that a
// copy could not hide in an allocator size class.
func sharedImage(ver dbver.Version) *driverimg.Image {
	img := catalogImage(ver)
	img.Payload = bytes.Repeat([]byte{byte(ver.Major)}, 16<<10)
	return img
}

// stageBootstraps runs n bootstrap REQUESTs without fetching the file,
// so each lease keeps its transfer staged.
func stageBootstraps(t *testing.T, srv *Server, n int) []uint64 {
	t.Helper()
	lc, err := DialLeaseClient(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	var ids []uint64
	for i := 0; i < n; i++ {
		req := catalogRequest()
		req.ClientID = fmt.Sprintf("share-%d", i)
		offer, err := lc.Request(req)
		if err != nil {
			t.Fatal(err)
		}
		if !offer.HasDriver {
			t.Fatal("bootstrap must stage a transfer")
		}
		ids = append(ids, offer.LeaseID)
	}
	return ids
}

// catalogBlob returns the current catalog entry's blob for a driver.
func catalogBlob(t *testing.T, srv *Server, id int64) []byte {
	t.Helper()
	cat, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	if cat == nil {
		t.Fatal("the v2 ConnStore session must run matchmaking on the catalog")
	}
	ent := cat.byID[id]
	if ent == nil || len(ent.blob) == 0 {
		t.Fatalf("driver %d has no catalog blob", id)
	}
	return ent.blob
}

// assertPendingShare checks that every listed lease's staged transfer is
// the catalog blob itself, not a copy of it.
func assertPendingShare(t *testing.T, srv *Server, leases []uint64, blob []byte) {
	t.Helper()
	srv.pendingMu.Lock()
	defer srv.pendingMu.Unlock()
	for _, id := range leases {
		p, ok := srv.pending[id]
		if !ok {
			t.Fatalf("lease %d has no staged transfer", id)
		}
		if len(p.blob) != len(blob) || &p.blob[0] != &blob[0] {
			t.Fatalf("lease %d staged a private copy, not the catalog blob", id)
		}
	}
}

// TestExternalTransfersShareCatalogBlob: N bootstraps over the external
// deployment stage N transfers that all share the catalog entry's
// backing array, and that array survives catalog reloads: one caused
// by permission churn (driver entries carried over) and one caused by
// driver churn (every driver row decoded afresh from the wire; equal
// bytes keep the previous slice).
func TestExternalTransfersShareCatalogBlob(t *testing.T) {
	srv := externalCatalogServer(t)
	id, err := srv.AddDriver(sharedImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	leases := stageBootstraps(t, srv, 5)
	blob := catalogBlob(t, srv, id)
	assertPendingShare(t, srv, leases, blob)

	before, _ := srv.catalogSnapshot()
	if _, err := srv.SetPermission(Permission{DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit}); err != nil {
		t.Fatal(err)
	}
	if after := catalogBlob(t, srv, id); &after[0] != &blob[0] {
		t.Fatal("permission churn replaced the catalog blob")
	}
	if now, _ := srv.catalogSnapshot(); now == before {
		t.Fatal("permission churn must reload the catalog")
	}
	leases = append(leases, stageBootstraps(t, srv, 2)...)
	assertPendingShare(t, srv, leases, blob)

	// A second, lower driver keeps the permission's driver the match
	// but rescans every driver row.
	if _, err := srv.AddDriver(sharedImage(dbver.V(0, 9, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	if after := catalogBlob(t, srv, id); &after[0] != &blob[0] {
		t.Fatal("a driver-table reload replaced an unchanged catalog blob")
	}
	leases = append(leases, stageBootstraps(t, srv, 2)...)
	assertPendingShare(t, srv, leases, blob)
}

// racingUpdateStore is a LocalStore where a DBA replaces one driver's
// binary_code just before the server's next read of that driver row by
// primary key, the statement a transfer issues after matchmaking. It
// reproduces an UPDATE landing between a catalog match and staging.
type racingUpdateStore struct {
	*LocalStore
	armed   atomic.Bool
	newBlob []byte
	raced   atomic.Bool
	err     atomic.Value // error from the racing UPDATE
}

func isDriverRowRead(sql string) bool {
	return strings.HasPrefix(strings.TrimSpace(sql), "SELECT") &&
		strings.Contains(sql, "FROM "+DriversTable) && strings.Contains(sql, "driver_id = $id")
}

func (r *racingUpdateStore) race(sql string, args []any) {
	if !isDriverRowRead(sql) || !r.armed.CompareAndSwap(true, false) {
		return
	}
	id := args[0].(sqlmini.Args)["id"]
	if _, err := r.LocalStore.Exec(`UPDATE `+DriversTable+` SET binary_code = $b WHERE driver_id = $id`,
		sqlmini.Args{"b": r.newBlob, "id": id}); err != nil {
		r.err.Store(err)
	}
	r.raced.Store(true)
}

func (r *racingUpdateStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	r.race(sql, args)
	return r.LocalStore.Exec(sql, args...)
}

func (r *racingUpdateStore) Prepare(sql string) (Stmt, error) {
	h, err := r.LocalStore.Prepare(sql)
	if err != nil || !isDriverRowRead(sql) {
		return h, err
	}
	return racingStmt{r: r, sql: sql, h: h}, nil
}

type racingStmt struct {
	r   *racingUpdateStore
	sql string
	h   Stmt
}

func (s racingStmt) Exec(args ...any) (*sqlmini.Result, error) {
	s.r.race(s.sql, args)
	return s.h.Exec(args...)
}

func (s racingStmt) Close() error { return s.h.Close() }

// TestTransferStagesOfferedBytes: a DBA UPDATE of binary_code landing
// between the catalog match and the transfer must not make the server
// stage the new bytes under the old checksum — the bootloader would
// reject them with a checksum mismatch. The bootstrap succeeds on the
// bytes it was offered; the next renewal upgrades to the new content.
func TestTransferStagesOfferedBytes(t *testing.T) {
	f := newFixture(t, 1)
	st := &racingUpdateStore{LocalStore: NewLocalStore(sqlmini.NewDB())}
	srv, err := NewServer("racing", st)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	v1 := f.driverImage(dbver.V(1, 0, 0), 1, 4<<10)
	if _, err := srv.AddDriver(v1, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	replaced := f.driverImage(dbver.V(1, 0, 0), 1, 4<<10)
	replaced.Payload[0] ^= 0xFF
	st.newBlob = replaced.Encode()
	st.armed.Store(true)

	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{srv.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2*time.Second))
	t.Cleanup(b.Close)
	mustConnect(t, b, f.appURL())
	if !st.raced.Load() {
		t.Fatal("the racing UPDATE never ran: the transfer issued no driver-row read")
	}
	if err, _ := st.err.Load().(error); err != nil {
		t.Fatal(err)
	}
	if got, want := b.CurrentChecksum(), v1.Checksum(); got != want {
		t.Fatalf("bootstrapped checksum %s, want the offered v1 %s", got, want)
	}

	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if got, want := b.CurrentChecksum(), replaced.Checksum(); got != want {
		t.Fatalf("after renewal checksum %s, want the replaced content %s", got, want)
	}
}

// TestTransferProbeDeletedDriver: a driver deleted between the match and
// the transfer fails the transfer with INTERNAL, not NO_DRIVER, so a
// renewal racing a DeleteDriver keeps its working driver; nothing is
// staged.
func TestTransferProbeDeletedDriver(t *testing.T) {
	srv, st := newCatalogServer(t)
	id, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	g, perr := srv.match(catalogRequest())
	if perr != nil {
		t.Fatal(perr)
	}
	if _, err := st.Exec(`DELETE FROM `+DriversTable+` WHERE driver_id = $id`,
		sqlmini.Args{"id": id}); err != nil {
		t.Fatal(err)
	}
	perr = srv.materializeBlob(g)
	if perr == nil || perr.Code != ErrCodeInternal || !strings.Contains(perr.Message, "disappeared before transfer") {
		t.Fatalf("err = %v, want INTERNAL disappeared before transfer", perr)
	}
	if g.blob != nil {
		t.Fatal("a failed probe must not stage the blob")
	}
}
