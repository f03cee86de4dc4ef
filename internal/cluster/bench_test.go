package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// The cluster benchmarks compare the paper's two control-plane shapes
// under identical client traffic:
//
//   - single-external: one Drivolution server whose schema lives in a
//     legacy DBMS behind a ConnStore (Figure 2) — every matchmaking
//     probe and renewal pays store round-trips on top of the client's;
//   - cluster-3: three members, each answering from its own replicated
//     store — matchmaking is a local catalog hit and a renewal is a
//     local UPDATE fanned out to peers in-process.
//
// The win is structural (fewer network round-trips per operation), so
// it shows on a single-core box; on real hardware the three members
// also spread CPU.
//
// A cluster renewal's cost is mostly replication, not the REDIRECT hop
// (which only a renewal starting at a non-owner pays): the owner's
// UPDATE plus one apply on each of the two peers. Every member runs it
// on its hub's cached statement handle (parsed, classified and plan-
// analyzed once per SQL text) and the skiplist walks that move the
// leases index entries compare keys in place, so the fan-out costs
// three executions, not three parses, plans and argument marshals.
// TestHubRenewalAllocs pins that path's allocations.

func benchSeedAny(b *testing.B, srv *core.Server) {
	b.Helper()
	id, err := srv.AddDriver(testImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.SetPermission(core.Permission{
		DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: core.RenewUpgrade, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		b.Fatal(err)
	}
}

// newSingleExternal stands up the Figure 2 baseline: Drivolution
// schema in a legacy DBMS, one server reaching it through a driver
// connection.
func newSingleExternal(b *testing.B) *core.Server {
	b.Helper()
	legacyDB := sqlmini.NewDB()
	legacy := dbms.NewServer("legacy-db", dbms.WithUser("drivolution", "svc-pw"))
	legacy.AddDatabase("meta", legacyDB)
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(legacy.Stop)
	drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	store := core.NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+legacy.Addr()+"/meta",
			client.Props{"user": "drivolution", "password": "svc-pw"})
	})
	b.Cleanup(store.Close)
	srv, err := core.NewServer("drivolution-single", store)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Stop)
	benchSeedAny(b, srv)
	return srv
}

func newBenchFleet(b *testing.B) *Fleet {
	b.Helper()
	f, err := NewFleet(FleetConfig{Members: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Stop)
	benchSeedAny(b, f.Servers[0])
	return f
}

func dialBench(b *testing.B, addr string) *core.LeaseClient {
	b.Helper()
	lc, err := core.DialLeaseClient(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(lc.Close)
	return lc
}

// BenchmarkClusterMatchmaking measures DISCOVER throughput: the
// matchmaking a bootloader fleet generates when probing for drivers.
func BenchmarkClusterMatchmaking(b *testing.B) {
	b.Run("single-external", func(b *testing.B) {
		srv := newSingleExternal(b)
		lc := dialBench(b, srv.Addr())
		req := testRequest("app", "bench-client")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lc.Discover(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cluster-3", func(b *testing.B) {
		f := newBenchFleet(b)
		lcs := make([]*core.LeaseClient, len(f.Servers))
		for i, srv := range f.Servers {
			lcs[i] = dialBench(b, srv.Addr())
		}
		req := testRequest("app", "bench-client")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lcs[i%len(lcs)].Discover(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// leaseOn obtains a lease starting at addr, chasing redirects, and
// returns the offer plus the address that granted it.
func leaseOn(addr string, req core.Request) (core.Offer, string, error) {
	for hop := 0; hop < 3; hop++ {
		lc, err := core.DialLeaseClient(addr, 5*time.Second)
		if err != nil {
			return core.Offer{}, "", err
		}
		offer, err := lc.Request(req)
		lc.Close()
		var re *core.Redirect
		if errors.As(err, &re) && re.Addr != "" && re.Addr != addr {
			addr = re.Addr
			continue
		}
		return offer, addr, err
	}
	return core.Offer{}, "", errors.New("redirect loop")
}

type benchLease struct {
	lc  *core.LeaseClient
	req core.Request
}

// prepLeases grants one lease per simulated client and pairs it with a
// connection to its owning member, so the benchmark loop measures
// steady-state renewals (no redirects).
func prepLeases(b *testing.B, firstAddr string, n int) []benchLease {
	b.Helper()
	conns := map[string]*core.LeaseClient{}
	leases := make([]benchLease, n)
	for i := 0; i < n; i++ {
		req := testRequest("app", fmt.Sprintf("bench-client-%d", i))
		offer, addr, err := leaseOn(firstAddr, req)
		if err != nil {
			b.Fatal(err)
		}
		if conns[addr] == nil {
			conns[addr] = dialBench(b, addr)
		}
		req.LeaseID = offer.LeaseID
		req.CurrentChecksum = offer.DriverChecksum
		leases[i] = benchLease{lc: conns[addr], req: req}
	}
	return leases
}

// BenchmarkClusterRenewal measures RENEW throughput — the dominant
// steady-state traffic of a large bootloader fleet (Table 4).
func BenchmarkClusterRenewal(b *testing.B) {
	const fleet = 32
	b.Run("single-external", func(b *testing.B) {
		srv := newSingleExternal(b)
		leases := prepLeases(b, srv.Addr(), fleet)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := leases[i%len(leases)]
			if _, err := l.lc.Request(l.req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cluster-3", func(b *testing.B) {
		f := newBenchFleet(b)
		leases := prepLeases(b, f.Servers[0].Addr(), fleet)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := leases[i%len(leases)]
			if _, err := l.lc.Request(l.req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
