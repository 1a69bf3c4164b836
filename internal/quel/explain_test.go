package quel

import (
	"errors"
	"regexp"
	"strings"
	"testing"
)

// redactTimes replaces wall-clock fields so plan output is comparable
// across runs.
var timeRE = regexp.MustCompile(`time=[^)]+`)

func planLines(t *testing.T, s *Session, src string) []string {
	t.Helper()
	res := mustExec(t, s, src)
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v", res.Columns)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, timeRE.ReplaceAllString(row[0].String(), "time=X"))
	}
	return lines
}

func TestExplainSingleScan(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s, `explain retrieve (NOTE.name) where NOTE.pitch > 61`)
	want := []string{
		`Retrieve (rows=3) (time=X)`,
		`  Filter: (NOTE.pitch > 61) (in=3, out=3)`,
		`    Scan NOTE on NOTE (est=5, scanned=5, kept=3) (time=X)`,
		`      Sarg: NOTE.pitch > 61`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainOrderOpJoin(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	mustExec(t, s, `range of n1, n2 is NOTE`)
	got := planLines(t, s,
		`explain retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3`)
	// The planner binds n2 first (its sarg leaves one binding) and joins
	// n1 by probing the ordering's sibling tree instead of looping all
	// 25 pairs; only the two real candidates reach the qualification.
	want := []string{
		`Retrieve (rows=2) (time=X)`,
		`  Filter: ((n1 before n2 in note_in_chord) and (n2.name = 3)) (in=2, out=2)`,
		`    OrderOps: 2 evals (time=X)`,
		`    OrderProbe (n1 before n2 in note_in_chord) (est=2, probes=1, hits=2)`,
		`      Scan n2 on NOTE (est=5, scanned=5, kept=1) (time=X)`,
		`        Sarg: n2.name = 3`,
		`      Scan n1 on NOTE (est=5, scanned=5, kept=5) (time=X)`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainUnderUniqueSort(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s,
		`explain retrieve unique (NOTE.pitch) where NOTE under CHORD sort by pitch`)
	if !strings.Contains(got[0], "Retrieve Unique (rows=5)") {
		t.Fatalf("root: %s", got[0])
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"Sort: pitch", "Unique (dropped=0)", "under", "OrderOps: 5 evals", "OrderProbe"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("plan missing %q:\n%s", want, joined)
		}
	}
}

func TestExplainOnlyRetrieve(t *testing.T) {
	_, s := newSession(t)
	if _, err := s.Exec(`explain delete n`); err == nil ||
		!strings.Contains(err.Error(), "only retrieve") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Parse(`explain explain retrieve (n.name)`); err == nil {
		t.Fatal("nested explain accepted")
	}
}

func TestParseErrSentinel(t *testing.T) {
	_, err := Parse(`retrieve n.name`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
}

// TestExplainRunsQuery proves explain executes (actual counts come from
// a real run, per the "estimated vs. actual" contract) without emitting
// the query's own rows.
func TestExplainRunsQuery(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s, `explain retrieve (NOTE.name)`)
	if !strings.Contains(got[len(got)-1], "scanned=5") {
		t.Fatalf("expected actual scan counts, got:\n%s", strings.Join(got, "\n"))
	}
}

// TestExplainOrderProbeFetch is the golden test for probe-driven
// binding: n2's name index leaves one anchor, and its 24 `before`
// partners (of 200 notes in 4 scores) cost far less to fetch by ref
// than scanning n1's pitch range, so n1 is never scanned.  The pitch
// sarg filters each fetched tuple instead.
func TestExplainOrderProbeFetch(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 4, 50)
	mustExec(t, s, `range of n1, n2 is NOTE`)
	got := planLines(t, s,
		`explain retrieve (n1.name) where n1 before n2 in note_in_score and n2.name = 124 and n1.pitch < 60`)
	want := []string{
		`Retrieve (rows=11) (time=X)`,
		`  Filter: (((n1 before n2 in note_in_score) and (n2.name = 124)) and (n1.pitch < 60)) (in=11, out=11)`,
		`    OrderOps: 11 evals (time=X)`,
		`    OrderProbe (n1 before n2 in note_in_score) (est=12, probes=1, hits=11)`,
		`      IndexScan n2 on NOTE using ix_note_name [name = 124] (est=1, scanned=1, kept=1) (time=X)`,
		`        Sarg: n2.name = 124`,
		`      Fetch n1 on NOTE by note_in_score (est=25, fetched=24, kept=11)`,
		`        Sarg: n1.pitch < 60`,
	}
	assertPlan(t, got, want)
}
