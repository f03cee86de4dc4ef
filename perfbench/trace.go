package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; op groups the spans of one request and
// parent is the span that caused this one (0 for a request's root).
type span struct {
	id, parent, op int64
	name           string
	start, end     int64
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. All spans are recorded from the benchmark's own
// code: client-side around calls into each layer, and server-side by
// the store decorator and the timing driver factory.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// In-flight requests, for attributing store spans: by the lease id
	// or client id in a statement's arguments, else by the only worker
	// with a request open.
	idx     sync.Mutex
	byLease map[int64]int64
	byID    map[string]int64
	cur     [workers]struct {
		op   atomic.Int64
		root atomic.Int64
	}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byLease: make(map[int64]int64),
		byID: make(map[string]int64), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

func (t *tracer) add(s span) {
	s.id = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// open registers worker w's request and returns its op id and the id
// reserved for its root span.
func (t *tracer) open(w int, leaseID uint64, clientID string) (op, root int64) {
	op = t.nextID.Add(1)
	root = t.nextID.Add(1)
	t.idx.Lock()
	if leaseID != 0 {
		t.byLease[int64(leaseID)] = op
	}
	if clientID != "" {
		t.byID[clientID] = op
	}
	t.idx.Unlock()
	t.cur[w].root.Store(root)
	t.cur[w].op.Store(op)
	return op, root
}

// close records worker w's root span and forgets the request.
func (t *tracer) close(w int, op, root int64, name string, start int64, leaseID uint64, clientID string) {
	end := t.now()
	t.cur[w].op.Store(0)
	t.idx.Lock()
	if leaseID != 0 && t.byLease[int64(leaseID)] == op {
		delete(t.byLease, int64(leaseID))
	}
	if clientID != "" && t.byID[clientID] == op {
		delete(t.byID, clientID)
	}
	t.idx.Unlock()
	t.mu.Lock()
	t.spans = append(t.spans, span{id: root, op: op, name: name, start: start, end: end})
	t.mu.Unlock()
}

// child records a span of worker w's open request, if it has one.
func (t *tracer) child(w int, name string, start, end int64) {
	if op := t.cur[w].op.Load(); op != 0 {
		t.add(span{op: op, parent: t.cur[w].root.Load(), name: name, start: start, end: end})
	}
}

// attribute finds the request a store call serves. A client id in the
// arguments wins over an integer, since driver ids share the integer
// space with lease ids. It returns op 0 when the call cannot be
// attributed, and -1 when no traced request is open.
func (t *tracer) attribute(args []any) (op, parent int64) {
	t.idx.Lock()
	var byLease int64
	visit := func(v any) {
		switch x := v.(type) {
		case string:
			if o := t.byID[x]; o != 0 {
				op = o
			}
		case int64:
			if o := t.byLease[x]; o != 0 && byLease == 0 {
				byLease = o
			}
		}
	}
	for _, a := range args {
		if m, ok := a.(sqlmini.Args); ok {
			for _, v := range m {
				visit(v)
			}
		} else {
			visit(a)
		}
	}
	t.idx.Unlock()
	if op == 0 {
		op = byLease
	}
	if op == 0 {
		var open int
		for w := range t.cur {
			if o := t.cur[w].op.Load(); o != 0 {
				op, open = o, open+1
			}
		}
		switch open {
		case 0:
			return -1, 0 // outside any traced request: setup or acks
		case 2:
			return 0, 0
		}
	}
	for w := range t.cur {
		if t.cur[w].op.Load() == op {
			return op, t.cur[w].root.Load()
		}
	}
	return op, 0
}

func (t *tracer) store(name string, start int64, args []any) {
	if op, parent := t.attribute(args); op >= 0 {
		t.add(span{op: op, parent: parent, name: name, start: start, end: t.now()})
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one line of text: id parent op name start end.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d %d %d %s %d %d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fullStore is the capability set both production stores implement.
type fullStore interface {
	core.GenerationStore
	core.TableVersionStore
	core.TxStore
	core.StmtStore
	core.BatchStore
}

// tracedStore times every call into the wrapped store and counts the
// statements it executes. It advertises exactly the capabilities of
// the store it wraps: a missing one would push the server off its
// zero-SQL fast path and the trace would measure a different program.
type tracedStore struct {
	inner fullStore
	tr    *tracer
	stmts atomic.Int64
}

// tracedConnStore adds the run-time negotiated generation capability
// of ConnStore.
type tracedConnStore struct {
	*tracedStore
	og core.OptionalGenerationStore
}

func (s tracedConnStore) GenerationSupported() bool { return s.og.GenerationSupported() }

// wrapStore decorates st, which must be a LocalStore-like or a
// ConnStore-like store.
func wrapStore(st core.Store, tr *tracer) (core.Store, *tracedStore, error) {
	fs, ok := st.(fullStore)
	if !ok {
		return nil, nil, fmt.Errorf("store %T lacks a capability the decorator forwards", st)
	}
	ts := &tracedStore{inner: fs, tr: tr}
	if og, ok := st.(core.OptionalGenerationStore); ok {
		return tracedConnStore{tracedStore: ts, og: og}, ts, nil
	}
	return ts, ts, nil
}

func (s *tracedStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	t := s.tr.now()
	res, err := s.inner.Exec(sql, args...)
	s.stmts.Add(1)
	s.tr.store("store.exec", t, args)
	return res, err
}

func (s *tracedStore) Generation() uint64 {
	t := s.tr.now()
	g := s.inner.Generation()
	s.tr.store("store.generation", t, nil)
	return g
}

func (s *tracedStore) TableVersion(name string) uint64 {
	t := s.tr.now()
	v := s.inner.TableVersion(name)
	s.tr.store("store.table_version", t, nil)
	return v
}

func (s *tracedStore) Begin() (core.Tx, error) {
	t := s.tr.now()
	tx, err := s.inner.Begin()
	s.tr.store("store.begin", t, nil)
	if err != nil {
		return nil, err
	}
	return &tracedTx{inner: tx, s: s}, nil
}

func (s *tracedStore) Prepare(sql string) (core.Stmt, error) {
	t := s.tr.now()
	st, err := s.inner.Prepare(sql)
	s.tr.store("store.prepare", t, nil)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{inner: st, s: s}, nil
}

func (s *tracedStore) ExecBatch(stmts []core.Statement) ([]*sqlmini.Result, error) {
	t := s.tr.now()
	res, err := s.inner.ExecBatch(stmts)
	s.stmts.Add(int64(len(stmts)))
	var args []any
	for _, st := range stmts {
		args = append(args, st.Args...)
	}
	s.tr.store("store.batch", t, args)
	return res, err
}

type tracedStmt struct {
	inner core.Stmt
	s     *tracedStore
}

func (st *tracedStmt) Exec(args ...any) (*sqlmini.Result, error) {
	t := st.s.tr.now()
	res, err := st.inner.Exec(args...)
	st.s.stmts.Add(1)
	st.s.tr.store("store.stmt", t, args)
	return res, err
}

func (st *tracedStmt) Close() error { return st.inner.Close() }

type tracedTx struct {
	inner core.Tx
	s     *tracedStore
}

func (tx *tracedTx) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	t := tx.s.tr.now()
	res, err := tx.inner.Exec(sql, args...)
	tx.s.stmts.Add(1)
	tx.s.tr.store("store.tx_exec", t, args)
	return res, err
}

func (tx *tracedTx) Query(sql string, args ...any) (*sqlmini.Result, error) {
	t := tx.s.tr.now()
	res, err := tx.inner.Query(sql, args...)
	tx.s.stmts.Add(1)
	tx.s.tr.store("store.tx_exec", t, args)
	return res, err
}

func (tx *tracedTx) Commit() error {
	t := tx.s.tr.now()
	err := tx.inner.Commit()
	tx.s.tr.store("store.commit", t, nil)
	return err
}

func (tx *tracedTx) Rollback() error {
	t := tx.s.tr.now()
	err := tx.inner.Rollback()
	tx.s.tr.store("store.rollback", t, nil)
	return err
}

// newRuntime builds worker w's driver runtime. In the traced run the
// registered factory times each image load, and the driver it returns
// times each application connect.
func newRuntime(tr *tracer, w int) *driverimg.Runtime {
	rt := driverimg.NewRuntime()
	inner := dbms.ImageFactory()
	if tr == nil {
		rt.Register(dbms.DriverKind, inner)
		return rt
	}
	rt.Register(dbms.DriverKind, func(img *driverimg.Image) (client.Driver, error) {
		t := tr.now()
		drv, err := inner(img)
		tr.child(w, "driverimg.load", t, tr.now())
		if err != nil {
			return nil, err
		}
		return timedDriver{Driver: drv, tr: tr, w: w}, nil
	})
	return rt
}

type timedDriver struct {
	client.Driver
	tr *tracer
	w  int
}

func (d timedDriver) Connect(url string, props client.Props) (client.Conn, error) {
	t := d.tr.now()
	c, err := d.Driver.Connect(url, props)
	d.tr.child(d.w, "client.app_connect", t, d.tr.now())
	return c, err
}
