package main

import "time"

// workload fixes one benchmark workload: the deployment it runs on and
// its populations. Every workload runs the same lease lifecycle (cold
// bootstraps, the renewal/DISCOVER mix as an open and then a closed
// loop, fleet-wide rollouts of new versions), so every end-to-end metric is
// measured on every workload and a change to one deployment's layers
// shows against the other two.
type workload struct {
	name   string
	deploy string // deployStandalone, deployExternal or deployCluster
	// warm is the number of leases set up before measuring; every one
	// has acked its checksum, so no transfer stays staged.
	warm int
	// rate is the open-loop offer in ops/s. It was set once, on the
	// commit that introduced the benchmark, at about a quarter of the
	// workload's peak_ops_per_s there, and is never derived at run time.
	// At half the peak the p99s of runs with different seeds spread by
	// 0.6 to 1.1 of their median on a shared 2-CPU box.
	rate float64
	// cohort is the number of warm clients that renew onto the new
	// version and fetch it in each rollout round.
	cohort int
}

const (
	deployStandalone = "standalone" // one server on LocalStore
	deployExternal   = "external"   // Figure 2: schema in a legacy dbms behind ConnStore
	deployCluster    = "cluster"    // three members from cluster.NewFleet
)

var workloads = []workload{
	{name: "steady", deploy: deployStandalone, warm: 8000, rate: 4000, cohort: 800},
	{name: "rollout", deploy: deployExternal, warm: 8000, rate: 2500, cohort: 800},
	{name: "cluster", deploy: deployCluster, warm: 8000, rate: 1500, cohort: 800},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// workers is the number of client goroutines; each keeps at most
	// one request in flight. It matches the 2-CPU box the rates were
	// set on.
	workers = 2
	// setups is how many times a run builds the deployment; setup_s is
	// their median and the last one is measured.
	setups = 3

	discoverFrac = 0.10 // share of DISCOVER in the mix; the rest are renewals
	redirectFrac = 0.10 // cluster: share of renewals sent to a non-owner first

	imageSize = 64 << 10 // driver payload bytes
	appRows   = 16       // rows in the application's items table

	// Shares of --seconds given to the time-boxed phases, each split
	// over mixRounds rounds. The rollout is fixed work: rolloutRounds
	// rounds of one cohort each, one after every mixRounds/rolloutRounds
	// mix rounds.
	bootShare     = 0.15
	openShare     = 0.60
	closedShare   = 0.10
	mixRounds     = 10
	rolloutRounds = 5

	opTimeout = 10 * time.Second
)
