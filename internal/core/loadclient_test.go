package core

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// frameRelay is a frame-aware TCP relay in front of a Drivolution
// server. It counts the connections it accepts and the REQUEST frames
// clients send, and can drop every relayed connection the way a server
// closes idle ones. In swallow mode it reads client frames without
// forwarding them, so the server never answers; with cutAfterOffer set
// it closes a connection right after relaying an OFFER.
type frameRelay struct {
	ln            net.Listener
	target        string
	accepts       atomic.Int32
	requests      atomic.Int32
	swallow       atomic.Bool
	cutAfterOffer atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func newFrameRelay(t *testing.T, target string) *frameRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &frameRelay{ln: ln, target: target}
	go r.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		r.closeAll()
	})
	return r
}

func (r *frameRelay) addr() string { return r.ln.Addr().String() }

func (r *frameRelay) acceptLoop() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.accepts.Add(1)
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		go r.upstream(c, s)
		go r.downstream(s, c)
	}
}

// downstream relays server frames to the client.
func (r *frameRelay) downstream(s, c net.Conn) {
	defer c.Close()
	for {
		f, err := wire.ReadFrame(s)
		if err != nil {
			return
		}
		if err := wire.WriteFrame(c, f); err != nil {
			return
		}
		if f.Type == msgOffer && r.cutAfterOffer.Load() {
			s.Close()
			return
		}
	}
}

// upstream relays client frames to the server one at a time, counting
// REQUESTs and dropping every frame while swallow is set.
func (r *frameRelay) upstream(c, s net.Conn) {
	for {
		f, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		if f.Type == msgRequest {
			r.requests.Add(1)
		}
		if r.swallow.Load() {
			continue
		}
		if err := wire.WriteFrame(s, f); err != nil {
			return
		}
	}
}

// closeAll closes both sides of every relayed connection.
func (r *frameRelay) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// relayedBootloader bootstraps a bootloader whose only server is a
// frameRelay in front of the fixture's Drivolution server.
func relayedBootloader(t *testing.T, dialTimeout time.Duration) (*Bootloader, *frameRelay, *fixture) {
	t.Helper()
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	r := newFrameRelay(t, f.drv.Addr())
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{r.addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(dialTimeout))
	t.Cleanup(b.Close)
	mustConnect(t, b, f.appURL())
	if n := r.accepts.Load(); n != 1 {
		t.Fatalf("bootstrap dialed %d connection(s), want 1", n)
	}
	return b, r, f
}

// TestRenewResendsAfterIdleDrop: the server closed the idle cached
// connection, so the renewal fails before any answer and not by
// timeout. The server cannot have seen the REQUEST, so the bootloader
// re-sends it on exactly one fresh dial and the renewal succeeds.
func TestRenewResendsAfterIdleDrop(t *testing.T) {
	b, r, _ := relayedBootloader(t, 2*time.Second)
	r.closeAll()
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatalf("renewal after idle drop: %v", err)
	}
	if n := r.accepts.Load(); n != 2 {
		t.Fatalf("relay accepted %d connections, want 2 (bootstrap + one redial)", n)
	}
	if m := b.Stats(); m.Renewals != 1 || m.RenewFailures != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRenewNoResendAfterTimeout: the server read the REQUEST and never
// answered. The request may have been applied, so the bootloader must
// surface the timeout after dialTimeout instead of re-sending it.
func TestRenewNoResendAfterTimeout(t *testing.T) {
	const dialTimeout = 300 * time.Millisecond
	b, r, _ := relayedBootloader(t, dialTimeout)
	r.swallow.Store(true)
	before := r.requests.Load()

	start := time.Now()
	err := b.ForceRenew("prod")
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed < dialTimeout {
		t.Fatalf("renewal failed after %v, before the %v response timeout", elapsed, dialTimeout)
	}
	// The relay counts a REQUEST as soon as it reads one, and a re-sent
	// one would have held the renewal for another full timeout.
	if n := r.requests.Load() - before; n != 1 {
		t.Fatalf("relay saw %d REQUEST frames, want exactly 1", n)
	}
	if n := r.accepts.Load(); n != 1 {
		t.Fatalf("relay accepted %d connections, want 1 (no redial)", n)
	}
}

// TestRenewNoResendAfterAnswer: the connection died after the OFFER of
// an upgrade arrived, before the driver transfer finished. The server
// processed the REQUEST, so the bootloader must not re-send it, and it
// keeps running its current driver.
func TestRenewNoResendAfterAnswer(t *testing.T) {
	b, r, f := relayedBootloader(t, 2*time.Second)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 1), 1, 256))
	r.cutAfterOffer.Store(true)
	before := r.requests.Load()

	if err := b.ForceRenew("prod"); err == nil {
		t.Fatal("renewal succeeded although its transfer was cut")
	}
	// The relay counts a REQUEST before forwarding it, so a re-sent one
	// was counted before the renewal could see its answer.
	if n := r.requests.Load() - before; n != 1 {
		t.Fatalf("relay saw %d REQUEST frames, want exactly 1", n)
	}
	if n := r.accepts.Load(); n != 1 {
		t.Fatalf("relay accepted %d connections, want 1 (no redial)", n)
	}
	if v := b.Version(); v != dbver.V(1, 0, 0) {
		t.Fatalf("driver = %v after a failed upgrade, want 1.0.0 kept", v)
	}
}

// TestFetchFileRejectsBadTransfer: FILE_DATA streams that skip an
// offset or fall short of their announced total are rejected, and the
// client is poisoned because the stream cannot be trusted.
func TestFetchFileRejectsBadTransfer(t *testing.T) {
	data := []byte("driver")
	cases := map[string][]fileChunk{
		"offset gap": { // adds up to the total, but skips bytes 6..7
			{Offset: 0, Total: 12, Data: data},
			{Offset: 8, Total: 12, Last: true, Data: data},
		},
		"short total": {
			{Offset: 0, Total: 12, Data: data},
			{Offset: 6, Total: 12, Last: true, Data: data[:4]},
		},
	}
	for name, chunks := range cases {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				conn := wire.NewConn(nc)
				defer conn.Close()
				if f, err := conn.Recv(); err != nil || f.Type != msgFileRequest {
					return
				}
				for _, c := range chunks {
					if conn.Send(msgFileData, c.encode()) != nil {
						return
					}
				}
				conn.Recv() //nolint:errcheck // hold the stream open until the client hangs up
			}()

			lc, err := DialLeaseClient(ln.Addr().String(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			if n, err := lc.FetchFile(7); err == nil {
				t.Fatalf("FetchFile accepted a bad stream (%d bytes)", n)
			}
			if _, err := lc.Request(Request{}); !errors.Is(err, ErrLeaseClientPoisoned) {
				t.Fatalf("after a bad transfer: err = %v, want ErrLeaseClientPoisoned", err)
			}
		})
	}
}
