package main

import (
	"fmt"
	"math/rand"
)

// opKind is one request type of the renewal/DISCOVER mix.
type opKind uint8

const (
	kindRenew opKind = iota
	kindDiscover
)

// op is one generated mix request. client indexes the warm population.
type op struct {
	kind   opKind
	client int32
	// member is the member a DISCOVER is sent to; alt picks which
	// non-owner a redirected renewal starts at.
	member   uint8
	alt      uint8
	redirect bool
}

// Phase tags keep the streams of different phases independent.
const (
	phaseOpen = iota + 1
	phaseClosed
	phaseRollout
)

// subSeed derives an independent rand source seed for one
// (seed, phase, worker) stream with the splitmix64 finalizer.
func subSeed(seed int64, phase, worker int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)<<32 + uint64(worker)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// opStream yields one worker's seeded op sequence for one phase.
type opStream struct {
	rng        *rand.Rand
	population int
	members    int
}

func newOpStream(seed int64, phase, worker, population, members int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(subSeed(seed, phase, worker))),
		population: population, members: members}
}

func (s *opStream) next() op {
	o := op{client: int32(s.rng.Intn(s.population))}
	if s.rng.Float64() < discoverFrac {
		o.kind = kindDiscover
		o.member = uint8(s.rng.Intn(s.members))
		return o
	}
	if s.members > 1 && s.rng.Float64() < redirectFrac {
		o.redirect = true
		o.alt = uint8(s.rng.Intn(s.members - 1))
	}
	return o
}

// partition splits the warm clients, by a seeded permutation, into
// rounds cohorts of size clients each that take the upgrades, and the
// rest, which carry the renewal/DISCOVER mix.
func partition(seed int64, population, rounds, size int) (mix []int, cohorts [][]int) {
	perm := rand.New(rand.NewSource(subSeed(seed, phaseRollout, 0))).Perm(population)
	for k := 0; k < rounds; k++ {
		cohorts = append(cohorts, perm[k*size:(k+1)*size])
	}
	return perm[rounds*size:], cohorts
}

// clientID names warm client i; the seed is part of the name, so the
// cluster's shard placement changes with the seed too.
func clientID(seed int64, i int) string { return fmt.Sprintf("app-%d-%06d", seed, i) }

// appRow is one seeded row of the application's items table.
type appRow struct {
	id   int64
	name string
}

func seededRows(seed int64) []appRow {
	rng := rand.New(rand.NewSource(subSeed(seed, 0, 1)))
	rows := make([]appRow, appRows)
	for i := range rows {
		rows[i] = appRow{id: int64(i + 1), name: fmt.Sprintf("item-%08x", rng.Uint32())}
	}
	return rows
}

// payload is a seeded driver body; each version gets its own.
func payload(seed int64, version int) []byte {
	rng := rand.New(rand.NewSource(subSeed(seed, 0, 10+version)))
	b := make([]byte, imageSize)
	rng.Read(b)
	return b
}
