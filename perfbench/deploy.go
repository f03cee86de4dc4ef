package main

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

const (
	appUser, appPassword = "app", "app-pw"
	svcUser, svcPassword = "drivolution", "svc-pw"
	appDatabase          = "prod"
	metaDatabase         = "meta"
)

var jdbc3 = dbver.APIOf("JDBC", 3, 0)

// deployment is one running Drivolution control plane plus the
// application database its clients query.
type deployment struct {
	kind    string
	servers []*core.Server
	addrs   []string
	appURL  string
	// schema lists the DBMS servers that execute the Drivolution
	// schema's statements: the legacy DBMS of the external deployment,
	// the cluster members' replication hubs, none for standalone.
	schema []*dbms.Server
	// leaseDBs are the databases holding a copy of the leases table.
	leaseDBs []*sqlmini.DB
	cs       *core.ConnStore
	fleet    *cluster.Fleet
	stops    []func()
}

// serverOptions configures a server as drivolutiond does by default:
// one-hour leases, RENEW_UPGRADE, AFTER_COMMIT and no reaper.
func serverOptions() []core.ServerOption {
	return []core.ServerOption{
		core.WithDefaultLease(time.Hour),
		core.WithDefaultPolicies(core.RenewUpgrade, core.AfterCommit),
	}
}

func newAppDB(rows []appRow) *sqlmini.DB {
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	for _, r := range rows {
		db.MustExec("INSERT INTO items (id, name) VALUES (?, ?)", r.id, r.name)
	}
	return db
}

// deploy starts a deployment of the given kind. wrap, when non-nil,
// decorates the server's Store (the traced run); cluster member stores
// are built inside cluster.NewFleet and are never wrapped.
func deploy(kind string, rows []appRow, wrap func(core.Store) (core.Store, error)) (d *deployment, err error) {
	d = &deployment{kind: kind}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if wrap == nil {
		wrap = func(st core.Store) (core.Store, error) { return st, nil }
	}
	appDB := newAppDB(rows)
	switch kind {
	case deployStandalone, deployCluster:
		app := dbms.NewServer("app-db", dbms.WithUser(appUser, appPassword))
		app.AddDatabase(appDatabase, appDB)
		if err := app.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		d.stops = append(d.stops, app.Stop)
		d.appURL = "dbms://" + app.Addr() + "/" + appDatabase
	case deployExternal:
		// Figure 2: the application's data and the Drivolution schema
		// live in one legacy DBMS; the server reaches the schema over a
		// v2 session through ConnStore.
		legacy := dbms.NewServer("legacy-db",
			dbms.WithUser(appUser, appPassword), dbms.WithUser(svcUser, svcPassword))
		legacy.AddDatabase(appDatabase, appDB)
		meta := sqlmini.NewDB()
		legacy.AddDatabase(metaDatabase, meta)
		if err := legacy.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		d.stops = append(d.stops, legacy.Stop)
		d.appURL = "dbms://" + legacy.Addr() + "/" + appDatabase
		d.schema = []*dbms.Server{legacy}
		d.leaseDBs = []*sqlmini.DB{meta}
		drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), 2)
		addr := legacy.Addr()
		d.cs = core.NewConnStore(func() (client.Conn, error) {
			return drv.Connect("dbms://"+addr+"/"+metaDatabase,
				client.Props{"user": svcUser, "password": svcPassword})
		})
		d.stops = append(d.stops, d.cs.Close)
	default:
		return nil, fmt.Errorf("unknown deployment %q", kind)
	}

	switch kind {
	case deployStandalone, deployExternal:
		var st core.Store
		if kind == deployStandalone {
			db := sqlmini.NewDB()
			d.leaseDBs = []*sqlmini.DB{db}
			st = core.NewLocalStore(db)
		} else {
			st = d.cs
		}
		st, err := wrap(st)
		if err != nil {
			return nil, err
		}
		srv, err := core.NewServer("drivolutiond", st, serverOptions()...)
		if err != nil {
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		d.stops = append(d.stops, srv.Stop)
		d.servers = []*core.Server{srv}
	case deployCluster:
		f, err := cluster.NewFleet(cluster.FleetConfig{
			Members:       3,
			NamePrefix:    "drivolutiond",
			ServerOptions: func(int) []core.ServerOption { return serverOptions() },
		})
		if err != nil {
			return nil, err
		}
		d.stops = append(d.stops, f.Stop)
		d.fleet = f
		d.servers = f.Servers
		d.schema = f.Hubs
		d.leaseDBs = f.DBs
	}
	d.addrs = make([]string, len(d.servers))
	for i, s := range d.servers {
		d.addrs[i] = s.Addr()
	}
	return d, nil
}

// owner is the member that grants and renews a client's lease.
func (d *deployment) owner(driverID int64, clientID string) int {
	if d.fleet == nil {
		return 0
	}
	return d.fleet.HomeOf(driverID, clientID)
}

func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
}

// counters sums the server counters the benchmark reads.
func (d *deployment) counters() core.ServerCounters {
	var c core.ServerCounters
	for _, s := range d.servers {
		x := s.Counters()
		c.BytesOut += x.BytesOut
		c.RenewUpgrades += x.RenewUpgrades
		c.Redirects += x.Redirects
	}
	return c
}

// dbmsCounts is a snapshot of the schema DBMS counters.
type dbmsCounts struct{ stmts, stmtExecs, probes int64 }

func (c dbmsCounts) minus(b dbmsCounts) dbmsCounts {
	return dbmsCounts{c.stmts - b.stmts, c.stmtExecs - b.stmtExecs, c.probes - b.probes}
}

func (c dbmsCounts) plus(b dbmsCounts) dbmsCounts {
	return dbmsCounts{c.stmts + b.stmts, c.stmtExecs + b.stmtExecs, c.probes + b.probes}
}

func (d *deployment) dbmsCounts() dbmsCounts {
	var c dbmsCounts
	for _, s := range d.schema {
		c.stmts += s.QueriesServed()
		c.stmtExecs += s.StmtExecsServed()
		c.probes += s.VersionProbesServed()
	}
	return c
}

// leaseVersions returns the leases table version of every lease DB.
func (d *deployment) leaseVersions() []uint64 {
	v := make([]uint64, len(d.leaseDBs))
	for i, db := range d.leaseDBs {
		v[i] = db.TableVersion(core.LeasesTable)
	}
	return v
}

// image is a published driver image and what clients should see of it.
type image struct {
	id       int64
	checksum string
	size     int
}

// publish signs and adds a dbms-native driver image through member 0;
// in a cluster the insert replicates to every member.
func (d *deployment) publish(key ed25519.PrivateKey, seed int64, version int) (image, error) {
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             jdbc3,
			Version:         dbver.V(version, 0, 0),
			ProtocolVersion: 1,
			Options:         map[string]string{"user": appUser, "password": appPassword},
		},
		Payload: payload(seed, version),
	}
	img.Sign(key)
	id, err := d.servers[0].AddDriver(img, dbver.FormatImage)
	if err != nil {
		return image{}, fmt.Errorf("publish v%d: %w", version, err)
	}
	return image{id: id, checksum: img.Checksum(), size: len(img.Encode())}, nil
}
