package dbms

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// startServer boots a server with one database "app" containing a
// seeded accounts table and user alice/secret.
func startServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE accounts (id INTEGER NOT NULL PRIMARY KEY, balance INTEGER)")
	db.MustExec("INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 200)")
	all := append([]ServerOption{WithUser("alice", "secret")}, opts...)
	s := NewServer("testdb", all...)
	s.AddDatabase("app", db)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func dial(t *testing.T, s *Server, proto uint16) client.Conn {
	t.Helper()
	d := NewNativeDriver(dbver.V(1, 0, 0), proto)
	c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestConnectAndQuery(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)

	res, err := c.Query("SELECT balance FROM accounts WHERE id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("rows = %+v", res.Rows)
	}

	if _, err := c.Exec("UPDATE accounts SET balance = balance + 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 105 {
		t.Fatalf("balance = %d", res.Rows[0][0].Int())
	}
	if s.QueriesServed() < 3 {
		t.Errorf("QueriesServed = %d", s.QueriesServed())
	}
}

func TestNamedArgsOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	res, err := c.Query("SELECT id FROM accounts WHERE balance > $min ORDER BY id", sqlmini.Args{"min": 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestProtocolMismatch(t *testing.T) {
	s := startServer(t, WithProtocolVersion(2))
	d := NewNativeDriver(dbver.V(1, 0, 0), 1) // old driver, new server
	_, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if !errors.Is(err, client.ErrProtocolMismatch) {
		t.Fatalf("err = %v, want ErrProtocolMismatch", err)
	}
	// Matching version connects fine.
	d2 := NewNativeDriver(dbver.V(2, 0, 0), 2)
	c, err := d2.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestAuthFailure(t *testing.T) {
	s := startServer(t)
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	_, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "wrong"})
	if !errors.Is(err, client.ErrAuth) {
		t.Fatalf("err = %v", err)
	}
	_, err = d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "mallory", "password": "x"})
	if !errors.Is(err, client.ErrAuth) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoSuchDatabase(t *testing.T) {
	s := startServer(t)
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	_, err := d.Connect("dbms://"+s.Addr()+"/nope", client.Props{"user": "alice", "password": "secret"})
	if !errors.Is(err, client.ErrNoDatabase) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryErrorDoesNotKillConnection(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	if _, err := c.Query("SELECT * FROM missing_table"); err == nil {
		t.Fatal("expected query error")
	}
	// Connection still usable.
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("connection died after query error: %v", err)
	}
}

func TestTransactionsOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !c.InTx() {
		t.Error("InTx should be true")
	}
	if _, err := c.Exec("UPDATE accounts SET balance = 0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.InTx() {
		t.Error("InTx should be false after rollback")
	}
	res, _ := c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("rollback over wire failed: %d", res.Rows[0][0].Int())
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE accounts SET balance = 42 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("commit over wire failed: %d", res.Rows[0][0].Int())
	}
}

func TestPingAndActiveSessions(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveSessions(); n != 1 {
		t.Errorf("ActiveSessions = %d", n)
	}
	if !s.UserHasSession("alice") {
		t.Error("UserHasSession(alice) = false")
	}
	if s.UserHasSession("bob") {
		t.Error("UserHasSession(bob) = true")
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Errorf("ActiveSessions after close = %d", n)
	}
}

func TestStopKillsSessionsAndRestartWorks(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	addr := s.Addr()
	s.Stop()

	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Maintenance done: restart on the same address; data survived.
	if err := s.Start(addr); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s, 1)
	res, err := c2.Query("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("data lost across restart")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	s := startServer(t)
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestReadOnlyReplicaRejectsWrites(t *testing.T) {
	s := startServer(t, WithReadOnly())
	c := dial(t, s, 1)
	if _, err := c.Query("SELECT count(*) FROM accounts"); err != nil {
		t.Fatalf("reads must work on a replica: %v", err)
	}
	if _, err := c.Exec("UPDATE accounts SET balance = 0 WHERE id = 1"); err == nil {
		t.Fatal("writes must be rejected on a read-only replica")
	}
}

func TestStatementReplication(t *testing.T) {
	master := startServer(t)
	slaveDB := sqlmini.NewDB()
	slave := NewServer("slave", WithUser("alice", "secret"), WithReadOnly())
	slave.AddDatabase("app", slaveDB)
	if err := slave.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slave.Stop)

	if err := master.SyncReplica(slave); err != nil {
		t.Fatal(err)
	}
	master.AttachReplica(slave)

	mc := dial(t, master, 1)
	if _, err := mc.Exec("INSERT INTO accounts (id, balance) VALUES (3, 300)"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Exec("UPDATE accounts SET balance = balance * 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Replica sees both changes.
	sc := dial(t, slave, 1)
	res, err := sc.Query("SELECT balance FROM accounts WHERE id IN (1, 3) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 200 || res.Rows[1][0].Int() != 300 {
		t.Fatalf("replica rows = %+v", res.Rows)
	}

	// Detach stops the flow.
	master.DetachReplica(slave)
	if _, err := mc.Exec("INSERT INTO accounts (id, balance) VALUES (4, 400)"); err != nil {
		t.Fatal(err)
	}
	res, _ = sc.Query("SELECT count(*) FROM accounts WHERE id = 4")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("detached replica still received statements")
	}
}

func TestFailoverPromoteSlave(t *testing.T) {
	master := startServer(t)
	slave := NewServer("slave", WithUser("alice", "secret"), WithReadOnly())
	slave.AddDatabase("app", sqlmini.NewDB())
	if err := slave.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slave.Stop)
	if err := master.SyncReplica(slave); err != nil {
		t.Fatal(err)
	}
	master.AttachReplica(slave)

	// Maintenance: stop master, promote slave.
	master.Stop()
	slave.SetReadOnly(false)

	sc := dial(t, slave, 1)
	if _, err := sc.Exec("INSERT INTO accounts (id, balance) VALUES (10, 1)"); err != nil {
		t.Fatalf("promoted slave must accept writes: %v", err)
	}
}

func TestImageFactory(t *testing.T) {
	s := startServer(t, WithProtocolVersion(3))
	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())

	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(2, 1, 0),
			ProtocolVersion: 3,
			Options:         map[string]string{"user": "alice", "password": "secret"},
		},
	}
	drv, _, err := rt.LoadBytes(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Credentials come from manifest options; the app passes none.
	c, err := drv.Connect("dbms://"+s.Addr()+"/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("query through image-loaded driver failed")
	}
	if drv.Version() != dbver.V(2, 1, 0) {
		t.Errorf("Version = %v", drv.Version())
	}
}

func TestPinnedURLFailoverDriver(t *testing.T) {
	// Two servers; a pre-configured driver pins connections to the
	// second one regardless of the application URL (paper §5.2).
	a := startServer(t)
	bDB := sqlmini.NewDB()
	bDB.MustExec("CREATE TABLE whoami (name VARCHAR)")
	bDB.MustExec("INSERT INTO whoami (name) VALUES ('server-b')")
	b := NewServer("server-b", WithUser("alice", "secret"))
	b.AddDatabase("app", bDB)
	if err := b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            DriverKind,
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			PinnedURL:       "dbms://" + b.Addr() + "/app",
			Options:         map[string]string{"user": "alice", "password": "secret"},
		},
	}
	drv, err := rt.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	// Application asks for server A; the pinned driver goes to B.
	c, err := drv.Connect("dbms://"+a.Addr()+"/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT name FROM whoami")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "server-b" {
		t.Fatalf("connected to %s, want server-b", res.Rows[0][0].Str())
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewNativeDriver(dbver.V(1, 0, 0), 1)
			c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := dial(t, s, 1)
	res, err := c.Query("SELECT balance FROM accounts WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 200+n*20 {
		t.Fatalf("balance = %d, want %d", got, 200+n*20)
	}
}

func TestWrongSchemeRejected(t *testing.T) {
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	if _, err := d.Connect("sequoia://h:1/db", nil); err == nil {
		t.Fatal("expected scheme rejection")
	}
}

// TestStatementCacheConcurrent drives the server's statement cache from
// several goroutines at once, past its bound (so it restarts while
// handles are in use), with every mutation replicating to a peer: each
// write must land on both databases exactly once.
func TestStatementCacheConcurrent(t *testing.T) {
	hub := NewServer("hub")
	peer := NewServer("peer")
	for _, s := range []*Server{hub, peer} {
		db := sqlmini.NewDB()
		db.MustExec("CREATE TABLE kv (k INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
		s.AddDatabase("app", db)
	}
	hub.AttachReplica(peer)

	const workers, perWorker = 4, maxServerStmts/2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := w*perWorker + i
				if _, err := hub.Execute("app", "INSERT INTO kv (k, v) VALUES (?, ?)", k, 0); err != nil {
					t.Error(err)
					return
				}
				// A distinct text per call walks the cache past its bound.
				sql := fmt.Sprintf("UPDATE kv SET v = v + %d WHERE k = ?", k+1)
				if _, err := hub.Execute("app", sql, k); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range []*Server{hub, peer} {
		//lint:scan-ok test introspection: counting every row
		res, err := s.Database("app").Query("SELECT count(*) FROM kv WHERE v = k + 1")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int(); n != workers*perWorker {
			t.Fatalf("%s: %d rows carry their update, want %d", s.Name(), n, workers*perWorker)
		}
	}
	if got := hub.QueriesServed(); got != 2*workers*perWorker {
		t.Fatalf("hub counted %d statements, want %d", got, 2*workers*perWorker)
	}
}
