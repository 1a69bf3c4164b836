package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/biblio"
	"repro/internal/client"
	"repro/internal/ingest"
	"repro/internal/mdm"
	"repro/internal/midi"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/value"
)

// host is the served store: the manager and its wire server in this
// process, configured as cmd/mdmd runs by default (durable commits
// through group commit, snapshot reads, serial executor), with
// background checkpoints every ckptBytes of log.
type host struct {
	dir  string
	m    *mdm.MDM
	ix   *biblio.Index
	srv  *server.Server
	addr string
}

func openHost(dir string, ckptBytes int64) (*host, error) {
	m, err := mdm.Open(mdm.Options{
		Dir:             dir,
		SyncCommits:     true,
		GroupCommit:     true,
		CheckpointBytes: ckptBytes,
		// The SCORE/NOTE corpus defines its own SCORE, so the CMN
		// schema stays out; the catalogue schema is opened below.
		SkipCMN: true,
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ix, err := biblio.Open(m.Model)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("open catalogue layer: %w", err)
	}
	srv := server.New(m, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		m.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &host{dir: dir, m: m, ix: ix, srv: srv, addr: srv.Addr().String()}, nil
}

func (h *host) dial(conns int) (*client.Client, error) {
	return client.Dial(client.Options{Addr: h.addr, PoolSize: conns})
}

// close drains the server and closes the store (a final checkpoint).
func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	serr := h.srv.Shutdown(ctx)
	if err := h.m.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	if serr != nil {
		return fmt.Errorf("drain server: %w", serr)
	}
	return nil
}

// scores is the score/note corpus of the ordering workloads: note i has
// name i, pitch i mod 128, and is the (i / nScores)-th child of score
// i mod nScores under the note_in_score ordering.
type scores struct {
	nNotes, nScores int
	noteRefs        []value.Ref // by name
	batchMS         []float64   // model.BulkInsert time per batch
}

// perScore is the number of notes under each score.
func (s *scores) perScore() int { return s.nNotes / s.nScores }

var scoreDDL = []string{
	`define entity SCORE (name = integer)`,
	`define entity NOTE (name = integer, pitch = integer, score = integer)`,
	`define ordering note_in_score (NOTE) under SCORE`,
	`define index on NOTE (pitch)`,
	`define index on NOTE (name)`,
}

// scoreBatch is the number of notes per model.BulkInsert transaction.
const scoreBatch = 5000

// loadScores defines the score schema and loads the corpus through
// model.BulkInsert with its ordering edges.
func loadScores(ctx context.Context, m *mdm.MDM, nNotes, nScores int) (*scores, error) {
	sess := m.NewSession()
	for _, src := range scoreDDL {
		if _, err := sess.ExecContext(ctx, src); err != nil {
			return nil, fmt.Errorf("%s: %w", src, err)
		}
	}
	sc := &scores{nNotes: nNotes, nScores: nScores, noteRefs: make([]value.Ref, 0, nNotes)}
	ents := make([]model.BulkEntity, nScores)
	for i := range ents {
		ents[i] = model.BulkEntity{Type: "SCORE", Attrs: model.Attrs{"name": value.Int(int64(i))}}
	}
	scoreRefs, err := m.Model.BulkInsert(ents, nil)
	if err != nil {
		return nil, fmt.Errorf("load scores: %w", err)
	}
	for lo := 0; lo < nNotes; lo += scoreBatch {
		hi := min(lo+scoreBatch, nNotes)
		ents := make([]model.BulkEntity, 0, hi-lo)
		edges := make([]model.BulkEdge, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ents = append(ents, model.BulkEntity{Type: "NOTE", Attrs: model.Attrs{
				"name":  value.Int(int64(i)),
				"pitch": value.Int(int64(i % 128)),
				"score": value.Int(int64(i % nScores)),
			}})
			edges = append(edges, model.BulkEdge{
				Ordering: "note_in_score", Parent: -1,
				ExternalParent: scoreRefs[i%nScores], Child: i - lo,
			})
		}
		start := time.Now()
		refs, err := m.Model.BulkInsert(ents, edges)
		if err != nil {
			return nil, fmt.Errorf("load notes: %w", err)
		}
		sc.batchMS = append(sc.batchMS, msSince(start))
		sc.noteRefs = append(sc.noteRefs, refs...)
	}
	return sc, nil
}

// work is one generated catalogue work and the pitches its payload
// encodes.
type work struct {
	number  int
	pitches []int
}

// treblePitch is the MIDI pitch of a natural note at a DARMS staff
// position in the treble clef with no key signature: position 21 is the
// bottom line, E4.
func treblePitch(pos int) int {
	d := 4*7 + 2 + pos - 21 // diatonic number, C0 = 0
	return 12*(d/7+1) + []int{0, 2, 4, 5, 7, 9, 11}[d%7]
}

// catalogueStream generates n works numbered from first as a bulk-load
// record stream: DARMS text or Standard MIDI Files, chosen per work by
// the seed, so the scanner and both converters run.
func catalogueStream(seed int64, first, n int) ([]byte, []work, error) {
	var stream []byte
	works := make([]work, 0, n)
	durs := []byte{'E', 'Q', 'H'}
	for num := first; num < first+n; num++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(num)))
		k := 8 + rng.Intn(9)
		w := work{number: num, pitches: make([]int, k)}
		rec := ingest.Record{Number: num, Title: fmt.Sprintf("Sinfonia %d", num)}
		if rng.Intn(2) == 0 {
			rec.Kind = ingest.KindDARMS
			var b strings.Builder
			b.WriteString("'G")
			pos := 17 + rng.Intn(9)
			for i := 0; i < k; i++ {
				if i > 0 {
					pos = max(13, min(33, pos+rng.Intn(7)-3))
				}
				w.pitches[i] = treblePitch(pos)
				fmt.Fprintf(&b, " %d%c", pos, durs[rng.Intn(len(durs))])
			}
			b.WriteString(" /")
			rec.Payload = []byte(b.String())
		} else {
			rec.Kind = ingest.KindSMF
			seq := &midi.Sequence{TicksPerQuarter: 480}
			p := 55 + rng.Intn(25)
			at := int64(0)
			for i := 0; i < k; i++ {
				if i > 0 {
					p = max(43, min(91, p+rng.Intn(13)-6))
				}
				w.pitches[i] = p
				dur := int64(250_000 * (1 + rng.Intn(4)))
				seq.Notes = append(seq.Notes, midi.NoteEvent{Key: p, Velocity: 80, StartUs: at, DurUs: dur})
				at += dur
			}
			data, err := midi.WriteSMF(seq)
			if err != nil {
				return nil, nil, fmt.Errorf("encode work %d: %w", num, err)
			}
			rec.Payload = data
		}
		stream = ingest.AppendRecord(stream, rec)
		works = append(works, w)
	}
	return stream, works, nil
}

// incipitQuery is one melodic search: the absolute pitches of the
// pattern (quel's incipit literal) and its intervals (biblio's query).
type incipitQuery struct {
	source    int // number of the work the pattern was cut from
	pitches   []int
	intervals []int
}

// literal is the quel string literal for the pattern.
func (q incipitQuery) literal() string {
	parts := make([]string, len(q.pitches))
	for i, p := range q.pitches {
		parts[i] = fmt.Sprint(p)
	}
	return strings.Join(parts, " ")
}

// cutQuery cuts a pattern of span intervals from a random work, so the
// search always finds at least that work.  Short patterns (the gram
// length) are broad; long ones are selective.
func cutQuery(rng *rand.Rand, works []work, span int) incipitQuery {
	for {
		w := works[rng.Intn(len(works))]
		if len(w.pitches) <= span {
			continue
		}
		at := rng.Intn(len(w.pitches) - span)
		q := incipitQuery{source: w.number, pitches: append([]int(nil), w.pitches[at:at+span+1]...)}
		for i := 1; i < len(q.pitches); i++ {
			q.intervals = append(q.intervals, q.pitches[i]-q.pitches[i-1])
		}
		return q
	}
}

// loadCatalogue creates a catalogue and streams works into it through
// ingest.Loader as cmd/mdmload runs by default: batches of ingestBatch
// works, index builds deferred to the end of the load.
func loadCatalogue(ix *biblio.Index, stream []byte) error {
	cat, err := ix.NewCatalog("Synthetic Werke Verzeichnis", "SWV", "perfbench")
	if err != nil {
		return fmt.Errorf("create catalogue: %w", err)
	}
	l := ingest.NewLoader(ix, ingest.Options{BatchSize: ingestBatch, DeferIndexes: true})
	if _, err := l.Load(cat, bytes.NewReader(stream)); err != nil {
		return fmt.Errorf("load catalogue: %w", err)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
