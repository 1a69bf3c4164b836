package quel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// setupPlanned builds a schema with a secondary index and an equi-join
// edge: CHORD(name) and NOTE(name, pitch, chord) with NOTE.pitch
// indexed, two chords, six notes.
func setupPlanned(t testing.TB, db *model.Database) {
	t.Helper()
	if _, err := ddl.Exec(db, `
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
define index on NOTE (pitch)
`); err != nil {
		t.Fatal(err)
	}
	chords := make([]value.Ref, 2)
	for i := range chords {
		chords[i], _ = db.NewEntity("CHORD", model.Attrs{"name": value.Int(int64(i + 1))})
	}
	for i := 1; i <= 6; i++ {
		n, _ := db.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(int64(59 + i)),
			"chord": value.Int(int64(i%2 + 1)),
		})
		if err := db.InsertChild("note_in_chord", chords[i%2], n, model.Last()); err != nil {
			t.Fatal(err)
		}
	}
}

func assertPlan(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainIndexScan(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	got := planLines(t, s,
		`explain retrieve (NOTE.name) where NOTE.pitch >= 61 and NOTE.pitch < 63`)
	want := []string{
		`Retrieve (rows=2) (time=X)`,
		`  Filter: ((NOTE.pitch >= 61) and (NOTE.pitch < 63)) (in=2, out=2)`,
		`    IndexScan NOTE on NOTE using ix_note_pitch [pitch >= 61 and pitch < 63] (est=2, scanned=2, kept=2) (time=X)`,
		`      Sarg: NOTE.pitch >= 61 and NOTE.pitch < 63`,
	}
	assertPlan(t, got, want)
}

func TestExplainHashJoinReorder(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	// c scans first despite n being alphabetically later work: its sarg
	// leaves one binding, so the planner reorders and hashes n on the
	// equi-conjunct instead of looping 6 combinations per chord.
	got := planLines(t, s,
		`explain retrieve (n.name) where n.chord = c.name and c.name = 1`)
	want := []string{
		`Retrieve (rows=3) (time=X)`,
		`  Filter: ((n.chord = c.name) and (c.name = 1)) (in=3, out=3)`,
		`    HashJoin (n.chord = c.name) (est=6, build=6, probes=1, hits=3)`,
		`      Scan c on CHORD (est=2, scanned=2, kept=1) (time=X)`,
		`        Sarg: c.name = 1`,
		`      Scan n on NOTE (est=6, scanned=6, kept=6) (time=X)`,
	}
	assertPlan(t, got, want)
}

func TestExplainSortElision(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	got := planLines(t, s, `explain retrieve (p = NOTE.pitch) sort by p desc`)
	want := []string{
		`Retrieve (rows=6) (time=X)`,
		`  Sort: p desc (satisfied by IndexScan ix_note_pitch)`,
		`    IndexScan NOTE on NOTE using ix_note_pitch (est=6, scanned=6, kept=6) (time=X)`,
	}
	assertPlan(t, got, want)
	// The elided sort must still produce descending output (the index is
	// read in reverse).
	res := mustExec(t, s, `retrieve (p = NOTE.pitch) sort by p desc`)
	for i := 1; i < len(res.Rows); i++ {
		if value.Compare(res.Rows[i-1][0], res.Rows[i][0]) < 0 {
			t.Fatalf("rows not descending: %v", res.Rows)
		}
	}
}

func TestExplainEmptyScanShortCircuit(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	got := planLines(t, s,
		`explain retrieve (n.name) where n.chord = c.name and c.name = 99`)
	want := []string{
		`Retrieve (rows=0) (time=X)`,
		`  Filter: ((n.chord = c.name) and (c.name = 99)) (in=0, out=0)`,
		`    NestedLoopJoin (est=12, actual=0)`,
		`      Scan c on CHORD (est=2, scanned=2, kept=0) (time=X)`,
		`        Sarg: c.name = 99`,
		`      Scan n on NOTE (est=6, skipped: earlier variable empty)`,
	}
	assertPlan(t, got, want)
}

// TestPlannerReplaceDeleteUseIndex confirms updates and deletes run
// through the same planner (index maintenance keeps subsequent range
// scans correct).
func TestPlannerReplaceDeleteUseIndex(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	res := mustExec(t, s, `replace NOTE (pitch = NOTE.pitch + 10) where NOTE.pitch >= 63`)
	if res.Affected != 3 {
		t.Fatalf("replace affected = %d, want 3", res.Affected)
	}
	res = mustExec(t, s, `retrieve (NOTE.name) where NOTE.pitch >= 73`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows after replace = %d, want 3", len(res.Rows))
	}
	res = mustExec(t, s, `delete NOTE where NOTE.pitch >= 73`)
	if res.Affected != 3 {
		t.Fatalf("delete affected = %d, want 3", res.Affected)
	}
	if res := mustExec(t, s, `retrieve (NOTE.name)`); len(res.Rows) != 3 {
		t.Fatalf("remaining = %d, want 3", len(res.Rows))
	}
}

// TestPlanMetrics checks that plan-choice counters move when the
// corresponding paths run.
func TestPlanMetrics(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	mustExec(t, s, `retrieve (NOTE.name) where NOTE.pitch = 62`)
	mustExec(t, s, `retrieve (n.name) where n.chord = c.name`)
	mustExec(t, s, `retrieve (n.name) where n under c in note_in_chord`)
	reg := db.Store().Obs()
	for _, name := range []string{
		"quel.plan.scan.index", "quel.plan.scan.full",
		"quel.plan.join.hash", "quel.plan.join.probe",
		"quel.plan.hash.probes", "quel.plan.hash.hits",
	} {
		if reg.Counter(name).Value() == 0 {
			t.Fatalf("counter %s = 0", name)
		}
	}
}

// TestProbeFetchVersions pins what a by-ref fetch sees when ordering
// partners change under a statement: on the snapshot path, a sibling
// replaced or deleted after the snapshot is pinned still binds as its
// snapshot version, and an entity created after the pin is skipped
// without error; on the locking path the live versions bind and a
// deleted ref is skipped.  Either way the probe fetches every partner
// and the rows equal an unaffected execution's.
func TestProbeFetchVersions(t *testing.T) {
	for _, snapshot := range []bool{true, false} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			db, s := newSession(t)
			buildScores(t, db, 4, 50) // score 2 holds notes 100..149 in name order
			s.SetSnapshotReads(snapshot)
			naive := NewSession(db)
			naive.SetNaive(true)
			for _, sess := range []*Session{s, naive} {
				mustExec(t, sess, "range of n1, n2 is NOTE")
			}
			q := `retrieve (n1.name, n1.pitch) where n1 before n2 in note_in_score and n2.name = 140 and n1.pitch < 80`
			pinnedRows := mustExec(t, s, q).String()
			refs := map[int64]value.Ref{}
			if err := db.Instances("NOTE", func(ref value.Ref, attrs value.Tuple) bool {
				refs[attrs[0].AsInt()] = ref
				return true
			}); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var snap *model.Snap
			if snapshot {
				var err error
				if snap, err = db.BeginSnapshot(ctx); err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
			}
			// Note 110 (pitch 38) leaves the sarg, note 120 leaves the
			// score, note 999 is new.
			if err := db.SetAttr(refs[110], "pitch", value.Int(99)); err != nil {
				t.Fatal(err)
			}
			if err := db.DeleteEntity(refs[120]); err != nil {
				t.Fatal(err)
			}
			late, err := db.NewEntity("NOTE", model.Attrs{"name": value.Int(999), "pitch": value.Int(40), "score": value.Int(2)})
			if err != nil {
				t.Fatal(err)
			}

			stmts, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			s.snap = snap
			res, ps, err := s.retrieveStats(ctx, stmts[0].(Retrieve))
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.varInfo("n1")
			if err != nil {
				t.Fatal(err)
			}
			var fetched []string
			err = s.fetchByRef(ctx, info, []value.Ref{refs[110], refs[120], late}, func(b binding) error {
				fetched = append(fetched, fmt.Sprintf("%d:%d", b.attrs[0].AsInt(), b.attrs[1].AsInt()))
				return nil
			})
			s.snap = nil
			if err != nil {
				t.Fatalf("fetchByRef: %v", err)
			}

			wantRows, wantFetched, partners := pinnedRows, "110:38 120:60", 40
			if !snapshot {
				wantRows = mustExec(t, naive, q).String()
				wantFetched, partners = "110:99 999:40", 39
				if wantRows == pinnedRows {
					t.Fatal("live changes did not reach the naive executor")
				}
			}
			if got := res.String(); got != wantRows {
				t.Fatalf("rows:\n%s\nwant:\n%s", got, wantRows)
			}
			if got := strings.Join(fetched, " "); got != wantFetched {
				t.Fatalf("fetchByRef bound %q, want %q", got, wantFetched)
			}
			if len(ps.Steps) != 2 || ps.Steps[1].Fetch == nil {
				t.Fatalf("n1 was not fetched by ref: %+v", ps.Steps)
			}
			if got := ps.Steps[1].Fetch.Fetched; got != partners {
				t.Fatalf("fetched %d partners, want %d", got, partners)
			}
			if snapshot {
				return
			}
			// Write statements bind on the locking path too.
			fetch := db.Store().Obs().Counter("quel.plan.scan.fetch")
			f0 := fetch.Value()
			if res := mustExec(t, s, `replace n1 (pitch = n1.pitch + 1) where n1 before n2 in note_in_score and n2.name = 140`); res.Affected != partners {
				t.Fatalf("replace affected %d, want %d", res.Affected, partners)
			}
			if fetch.Value() == f0 {
				t.Fatal("replace did not fetch its ordering partners")
			}
		})
	}
}
