package main

import (
	"fmt"
	"io"
)

// pin is the schema DBMS cost of one phase, as measured on the commit
// that introduced the benchmark, per unit of phaseCount: perOp for
// each request (each renewal, in the mix), perAux for each secondary
// request (DISCOVER in the mix, the checksum ack after an upgrade) and
// perFixed for each one-off unit (a rollout round's publish, the
// retire of its version, and the catalog reloads they cause).
type pin struct{ perOp, perAux, perFixed dbmsCounts }

func (p pin) want(pc phaseCount) dbmsCounts {
	f := func(a, b, c int64) int64 { return a*int64(pc.ops) + b*int64(pc.aux) + c*int64(pc.fixed) }
	return dbmsCounts{
		stmts:     f(p.perOp.stmts, p.perAux.stmts, p.perFixed.stmts),
		stmtExecs: f(p.perOp.stmtExecs, p.perAux.stmtExecs, p.perFixed.stmtExecs),
		probes:    f(p.perOp.probes, p.perAux.probes, p.perFixed.probes),
	}
}

// pins maps deployment and phase to the pinned statement counts
// (statements, prepared executions, table-version probes). The
// standalone server has no schema DBMS.
var pins = map[string]map[string]pin{
	deployExternal: {
		"bootstrap": {perOp: dbmsCounts{3, 2, 1}},
		"mix":       {perOp: dbmsCounts{1, 1, 1}, perAux: dbmsCounts{0, 0, 1}},
		"upgrade":   {perOp: dbmsCounts{3, 3, 1}, perAux: dbmsCounts{1, 1, 1}, perFixed: dbmsCounts{9, 5, 6}},
	},
	deployCluster: {
		"bootstrap": {perOp: dbmsCounts{2, 0, 0}},
		"mix":       {perOp: dbmsCounts{1, 0, 0}},
		"upgrade":   {perOp: dbmsCounts{3, 0, 0}, perAux: dbmsCounts{1, 0, 0}, perFixed: dbmsCounts{15, 0, 0}},
	},
}

// printPins shows each phase's measured counts, for pinning.
func (r *runner) printPins(out io.Writer) {
	for phase, pc := range r.m.phases {
		fmt.Fprintf(out, "#   schema dbms %s: %s: %+v\n", phase, pc, pc.c)
	}
}

// checkPins fails the run when a phase's schema DBMS statement counts
// differ from the pinned ones.
func (r *runner) checkPins() {
	for phase, pc := range r.m.phases {
		p, ok := pins[r.w.deploy][phase]
		if !ok {
			continue
		}
		// Table-version probes are not pinned: how many requests see a
		// stale generation after a publish depends on timing.
		want := p.want(pc)
		if pc.c.stmts != want.stmts || pc.c.stmtExecs != want.stmtExecs {
			r.wrongf("%s phase cost %+v on the schema DBMS for %s, pinned %+v", phase, pc.c, pc, want)
		}
	}
}

func (pc phaseCount) String() string {
	return fmt.Sprintf("ops %d aux %d fixed %d", pc.ops, pc.aux, pc.fixed)
}
