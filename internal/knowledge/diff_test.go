package knowledge

import (
	"math/rand"
	"strings"
	"testing"

	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
)

const oldODL = `
domain jobs
synonyms {
    position: job
}
concepts {
    degree { PhD }
}
mappings {
    map position "mainframe developer" -> era "1960-1980"
}
`

const newODL = `
domain jobs
synonyms {
    position: job, post
    salary: pay
}
concepts {
    degree { PhD "graduate degree" { MSc } }
}
mappings {
    map position "web developer" -> skill "JavaScript"
}
`

func loadStructs(t *testing.T, src string) Structures {
	t.Helper()
	ont, err := ontology.Load(src, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Structures{Synonyms: ont.Synonyms, Hierarchy: ont.Hierarchy, Mappings: ont.Mappings}
}

func TestDiffEmitsEvolution(t *testing.T) {
	old, neu := loadStructs(t, oldODL), loadStructs(t, newODL)
	deltas, warnings, err := Diff(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	// The pair-map changes content under the same auto-generated name
	// → one replacing add_mapping delta; nothing else was dropped, so
	// warnings should be empty.
	for _, w := range warnings {
		t.Errorf("unexpected warning: %s", w)
	}

	// Applying the diff on top of the OLD ontology must reproduce the
	// new one's behaviour.
	base := NewBase(old.Synonyms, old.Hierarchy, old.Mappings)
	o := NewOrigin("diff")
	for _, d := range deltas {
		out, err := base.Apply(o.Stamp(d))
		if err != nil {
			t.Fatalf("applying %s: %v", d, err)
		}
		if out.Rejected {
			t.Fatalf("diff delta rejected: %s (%s)", d, out.RejectReason)
		}
	}
	st := base.Stage(semantic.FullConfig())

	// New synonym members.
	res := st.ProcessEvent(message.E("post", "x", "pay", "y"))
	if !res.Event.Has("position") || !res.Event.Has("salary") {
		t.Fatalf("new synonyms not applied: %v", res.Event)
	}
	// New hierarchy path: MSc is-a "graduate degree" is-a degree.
	if !st.Hierarchy().IsA("MSc", "degree") {
		t.Fatal("new hierarchy edges not applied")
	}
	// Old hierarchy preserved.
	if !st.Hierarchy().IsA("PhD", "degree") {
		t.Fatal("genesis hierarchy lost")
	}
	// Mapping swap (same auto-generated name, new content): the old
	// behaviour is replaced, the new one live.
	if st.Mappings().Len() != 1 {
		t.Fatalf("mappings after diff: %v", st.Mappings().Names())
	}
	if st.ProcessEvent(message.E("position", "mainframe developer")).Event.Has("era") {
		t.Fatal("superseded mapping content still fires")
	}
	if v, ok := st.ProcessEvent(message.E("position", "web developer")).Event.Get("skill"); !ok || v.Str() != "JavaScript" {
		t.Fatal("new mapping not applied")
	}
}

// TestDiffFileStampFoldOrderSafe reproduces the documented injection
// paths (stopss-server -kb-watch, POST /api/kb): every line of the
// emitted log is stamped with a per-line content-hash epoch. One file
// now folds in line order under the sequence-major merge, but deltas
// from several logs (or logs mixed with live origins) still interleave
// by sequence number, so a content-changed mapping must remain a
// single self-contained delta — a retire-then-add pair could fold
// add-first, be rejected as already registered, and then be deleted by
// the retire, losing the update federation-wide. The shuffled arrival
// orders below also exercise the suffix-refold path end to end.
func TestDiffFileStampFoldOrderSafe(t *testing.T) {
	old, neu := loadStructs(t, oldODL), loadStructs(t, newODL)
	deltas, _, err := Diff(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	// The changed mapping (same auto-generated name, new content) must
	// be exactly one delta, and nothing may retire it.
	mapDeltas := 0
	for _, d := range deltas {
		switch d.Op {
		case OpAddMapping:
			mapDeltas++
		case OpRetire:
			t.Fatalf("changed mapping emitted an order-sensitive retire: %s", d)
		}
	}
	if mapDeltas != 1 {
		t.Fatalf("changed mapping emitted %d add_mapping deltas, want 1", mapDeltas)
	}

	stamped := make([]Delta, len(deltas))
	for i, d := range deltas {
		if stamped[i], err = FileStamp(uint64(i+1), d); err != nil {
			t.Fatalf("stamping line %d: %v", i+1, err)
		}
	}

	// Every arrival order — including the canonical (sorted) merge
	// fold order itself — must converge on the new ontology's mapping
	// behaviour with no rejections.
	rng := rand.New(rand.NewSource(7))
	var wantDigest string
	for trial := 0; trial < 20; trial++ {
		ds := append([]Delta(nil), stamped...)
		if trial > 0 {
			rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		}
		b := NewBase(old.Synonyms, old.Hierarchy, old.Mappings)
		for _, d := range ds {
			out, err := b.Apply(d)
			if err != nil {
				t.Fatalf("trial %d: applying %s: %v", trial, d, err)
			}
			if out.Rejected {
				t.Fatalf("trial %d: delta rejected: %s (%s)", trial, d, out.RejectReason)
			}
		}
		v := b.Version()
		if trial == 0 {
			wantDigest = v.Digest
		} else if v.Digest != wantDigest {
			t.Fatalf("trial %d: digest %s, want %s", trial, v.Digest, wantDigest)
		}
		st := b.Stage(semantic.FullConfig())
		if st.Mappings().Len() != 1 {
			t.Fatalf("trial %d: mappings after fold: %v", trial, st.Mappings().Names())
		}
		if st.ProcessEvent(message.E("position", "mainframe developer")).Event.Has("era") {
			t.Fatalf("trial %d: superseded mapping content still fires", trial)
		}
		if v, ok := st.ProcessEvent(message.E("position", "web developer")).Event.Get("skill"); !ok || v.Str() != "JavaScript" {
			t.Fatalf("trial %d: updated mapping lost in fold order %v", trial, ds)
		}
	}
}

func TestDiffWarnsOnRemovals(t *testing.T) {
	old, neu := loadStructs(t, newODL), loadStructs(t, oldODL) // reversed
	_, warnings, err := Diff(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(warnings, "\n")
	for _, want := range []string{"salary", "MSc", "removed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings missing %q:\n%s", want, joined)
		}
	}
}

func TestDiffRejectsRerooting(t *testing.T) {
	old := loadStructs(t, "domain d\nsynonyms {\n    a: b\n}\n")
	neu := loadStructs(t, "domain d\nsynonyms {\n    c: b\n}\n")
	if _, _, err := Diff(old, neu); err == nil {
		t.Fatal("re-rooted term diffed without error")
	}
}
