package quel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// TestPlannerNaiveDifferential executes randomized retrieves through
// both executors — the cost-based planner and the retained naive
// nested-loop path — over the same database and asserts identical
// result multisets.  The query pool exercises every planner decision:
// index range scans (bounded and unbounded sargs, matched and
// mismatched literal kinds), hash equi-joins (attribute/attribute,
// identity, multi-conjunct), ordering probes (before/after/under, both
// orientations, scanned or fetched by ref), join reordering, sort
// elision, unique, and empty-scan short-circuits.  The planner runs on
// a statement snapshot and, in a second session, on the locking path;
// both must agree with each other row for row.  Ordering-probe queries
// anchored on one row must also match the naive row order exactly:
// siblings are appended in creation order, so sibling order and the
// naive executor's heap order coincide.
func TestPlannerNaiveDifferential(t *testing.T) {
	db, planned := newSession(t)
	naive := NewSession(db)
	naive.SetNaive(true)
	locking := NewSession(db)
	locking.SetSnapshotReads(false)

	if _, err := ddl.Exec(db, `
define entity A (x = integer, y = integer, w = float)
define entity B (x = integer, z = integer)
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
define index on A (x)
define index on NOTE (pitch)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		if _, err := db.NewEntity("A", model.Attrs{
			"x": value.Int(rng.Int63n(10)),
			"y": value.Int(rng.Int63n(5)),
			"w": value.Float(float64(rng.Int63n(8))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := db.NewEntity("B", model.Attrs{
			"x": value.Int(rng.Int63n(10)),
			"z": value.Int(rng.Int63n(6)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	chords := make([]value.Ref, 8)
	for i := range chords {
		c, err := db.NewEntity("CHORD", model.Attrs{"name": value.Int(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		chords[i] = c
	}
	for i := 0; i < 40; i++ {
		ci := rng.Intn(len(chords))
		n, err := db.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(48 + rng.Int63n(32)),
			"chord": value.Int(int64(ci + 1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertChild("note_in_chord", chords[ci], n, model.Last()); err != nil {
			t.Fatal(err)
		}
	}

	lit := func() int64 { return rng.Int63n(12) }
	chord := func() int64 { return 1 + rng.Int63n(int64(len(chords))) }
	name := func() int64 { return rng.Int63n(40) }
	pitch := func() int64 { return 48 + rng.Int63n(32) }
	op := func() string {
		return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	}
	templates := []func() string{
		// Single-variable sargs on the indexed attribute, including
		// ranges and a float literal on an integer field (kind
		// mismatch: must stay a residual filter, never a bad bound).
		func() string { return fmt.Sprintf(`retrieve (a.x, a.y) where a.x %s %d`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (a.x, a.y) where a.x >= %d and a.x < %d`, lit(), lit())
		},
		func() string { return fmt.Sprintf(`retrieve (a.x) where a.x = %d.0`, lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.w) where a.w %s %d.0`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name) where n.pitch >= %d and n.pitch <= %d`, pitch(), pitch())
		},
		// Contradictory bounds: empty index range, scan short-circuit.
		func() string { return `retrieve (n.name, c.name) where n.pitch > 99 and n.chord = c.name` },
		// Hash equi-joins, with and without extra sargs; or-disjuncts
		// must keep the conjunct out of the join keys.
		func() string { return `retrieve (a.x, b.z) where a.x = b.x` },
		func() string { return fmt.Sprintf(`retrieve (a.y, b.z) where a.x = b.x and b.z %s %d`, op(), lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.x) where a.x = b.x and a.y = b.z and b.x < %d`, lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.x, b.x) where a.x = b.x or a.y > %d`, lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n.chord = c.name and c.name %s %d`, op(), chord())
		},
		// Identity join through two variables over the same type.
		func() string { return fmt.Sprintf(`retrieve (n1.name) where n1 = n2 and n2.name = %d`, rng.Int63n(40)) },
		// Ordering probes in every orientation.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n2.name) where n1 before n2 in note_in_chord and n1.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n under c in note_in_chord and c.name = %d`, chord())
		},
		func() string {
			return fmt.Sprintf(`retrieve (c.name) where n under c in note_in_chord and n.name = %d`, rng.Int63n(40))
		},
		func() string { return `retrieve unique (c.name) where n under c in note_in_chord and n.pitch > 60` },
		// Three-way: ordering probe plus hash join.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n1.pitch = n2.pitch and c.name = n1.chord and c.name %s %d`, op(), chord())
		},
		// Sort elision (asc and desc) and sorted joins.
		func() string { return fmt.Sprintf(`retrieve (p = n.pitch) where n.pitch > %d sort by p`, pitch()) },
		func() string {
			return fmt.Sprintf(`retrieve (p = n.pitch, nm = n.name) where n.pitch < %d sort by p desc`, pitch())
		},
		func() string { return `retrieve unique (x = a.x) sort by x desc` },
		func() string { return `retrieve (a.y, b.z) where a.x = b.x sort by y, z desc` },
	}

	// Ordering probes whose probe side is fetched by ref (one anchor's
	// partners are far fewer than the probe side's rows), in every
	// direction, with indexed and unindexed sargs on the fetched side,
	// over three variables, and falling back to a scan when a hash
	// join claims the deferred variable first.
	ordered := []func() string{
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n1.pitch) where n1 before n2 in note_in_chord and n2.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n2.name) where n1 before n2 in note_in_chord and n1.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n2.name) where n1 after n2 in note_in_chord and n1.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, n.chord) where n under c in note_in_chord and c.name = %d`, chord())
		},
		func() string {
			return fmt.Sprintf(`retrieve (c.name) where n under c in note_in_chord and n.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (c.name) where c.name %s %d and n under c in note_in_chord and n.name = %d`, op(), chord(), name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = %d and n1.pitch %s %d and n1.chord %s %d`,
				name(), op(), pitch(), op(), chord())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = %d and n1.name %s %d`, name(), op(), name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n3.name) where n1 before n2 in note_in_chord and n2 before n3 in note_in_chord and n2.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, n1.name) where n under c in note_in_chord and n1 after n in note_in_chord and c.name = %d and n1.pitch > %d`, chord(), pitch())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = %d and n1.pitch = n2.pitch`, name())
		},
	}

	decls := `range of a is A
range of b is B
range of n, n1, n2, n3 is NOTE
range of c is CHORD`
	for _, sess := range []*Session{planned, naive, locking} {
		mustExec(t, sess, decls)
	}

	fetch := db.Store().Obs().Counter("quel.plan.scan.fetch")
	run := func(q string) (*Result, *Result) {
		t.Helper()
		pres, perr := planned.Exec(q)
		lres, lerr := locking.Exec(q)
		nres, nerr := naive.Exec(q)
		if (perr == nil) != (nerr == nil) || (lerr == nil) != (nerr == nil) {
			t.Fatalf("query %q: planner err = %v, locking err = %v, naive err = %v", q, perr, lerr, nerr)
		}
		if perr != nil {
			t.Fatalf("query %q: %v", q, perr)
		}
		if got, want := strings.Join(pres.Columns, ","), strings.Join(nres.Columns, ","); got != want {
			t.Fatalf("query %q: columns %q vs %q", q, got, want)
		}
		if got, want := lres.String(), pres.String(); got != want {
			t.Fatalf("query %q: locking path differs from snapshot path\nlocking:\n%s\nsnapshot:\n%s", q, got, want)
		}
		if got, want := canonRows(pres), canonRows(nres); got != want {
			t.Fatalf("query %q: result mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
		}
		return pres, nres
	}
	for i := 0; i < 250; i++ {
		run(templates[i%len(templates)]())
	}
	f0 := fetch.Value()
	for i := 0; i < 240; i++ {
		q := ordered[i%len(ordered)]()
		if pres, nres := run(q); pres.String() != nres.String() {
			t.Fatalf("query %q: row order differs\nplanner:\n%s\nnaive:\n%s", q, pres, nres)
		}
	}
	if fetch.Value() == f0 {
		t.Fatal("no ordering probe fetched its partners by ref")
	}
}

// canonRows renders a result's rows as a sorted multiset: both executors
// must emit the same rows, but tie order within a sort (and row order
// without one) is executor-dependent.
func canonRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Quoted()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestPlannerSortedOrderAgreement pins down that with a sort clause the
// planner's row order (including an elided sort) matches the naive
// executor's stable sort exactly when the sort key is unique per row.
func TestPlannerSortedOrderAgreement(t *testing.T) {
	db, planned := newSession(t)
	naive := NewSession(db)
	naive.SetNaive(true)
	if _, err := ddl.Exec(db, `
define entity NOTE (name = integer, pitch = integer)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		if _, err := db.NewEntity("NOTE", model.Attrs{
			"name": value.Int(int64(i)), "pitch": value.Int(rng.Int63n(100)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`retrieve (nm = NOTE.name, p = NOTE.pitch) sort by nm`,
		`retrieve (nm = NOTE.name, p = NOTE.pitch) sort by nm desc`,
		`retrieve (nm = NOTE.name) where NOTE.name >= 5 and NOTE.name < 15 sort by nm desc`,
	} {
		pres := mustExec(t, planned, q)
		nres := mustExec(t, naive, q)
		if len(pres.Rows) != len(nres.Rows) {
			t.Fatalf("query %q: %d vs %d rows", q, len(pres.Rows), len(nres.Rows))
		}
		for i := range pres.Rows {
			for j := range pres.Rows[i] {
				if value.Compare(pres.Rows[i][j], nres.Rows[i][j]) != 0 {
					t.Fatalf("query %q: row %d differs: %v vs %v", q, i, pres.Rows[i], nres.Rows[i])
				}
			}
		}
	}
}
