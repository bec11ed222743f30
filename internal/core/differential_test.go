package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// newDifferentialEngine builds an engine over a private knowledge base
// (cloned from the generator's genesis structures, so every engine folds
// the same delta stream independently) with the given matcher.
func newDifferentialEngine(t *testing.T, gen *workload.Generator, alg string) *Engine {
	t.Helper()
	m, err := matching.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	kb := gen.KB()
	base := knowledge.NewBase(kb.Synonyms.Clone(), kb.Hierarchy.Clone(), kb.Mappings.Clone())
	return NewEngine(base.Stage(semantic.FullConfig()),
		WithMatcher(m), WithKnowledge(base))
}

// TestDifferentialOptimizedPipelineMatchesNaive is the safety net for
// the whole optimizer stack: every optimized engine (predicate
// pushdown, one per matching algorithm) must produce exactly
// the match sets of a reference engine running the Naive matcher —
// across randomized subscriptions, repeated event shapes, and knowledge
// deltas injected mid-stream (synonym, is-a and concept deltas). A plan
// ordered into wrongness, unique predicates shared wrongly, or a
// subscription left indexed under a stale canonical form all surface
// here as a match-set divergence.
func TestDifferentialOptimizedPipelineMatchesNaive(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			gen, err := workload.New(workload.Config{
				Seed: seed, SynonymProb: 0.7, ConceptProb: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			subs := gen.Subscriptions(300)
			shapes := gen.Events(60) // few shapes, many publishes

			// Reference: the naive matcher, no plans to share.
			ref := newDifferentialEngine(t, gen, "naive")
			engines := []*Engine{ref}
			for _, alg := range matching.Algorithms() {
				engines = append(engines, newDifferentialEngine(t, gen, alg))
			}
			for _, e := range engines {
				for _, s := range subs {
					if err := e.Subscribe(s); err != nil {
						t.Fatal(err)
					}
				}
			}

			rng := rand.New(rand.NewSource(seed * 7))
			var seq uint64
			nextDelta := func() knowledge.Delta {
				seq++
				d := knowledge.Delta{Origin: "difftest", Epoch: "e1", Seq: seq}
				switch seq % 3 {
				case 0:
					// Alias one generated string value to another,
					// changing the canonical form of events and
					// subscriptions that mention it as written.
					d.Op = knowledge.OpAddSynonym
					d.Root = fmt.Sprintf("attr%02d-val%03d", 4+seq%3, seq%4)
					d.Terms = []string{fmt.Sprintf("attr%02d-val%03d", 4+seq%3, 5+seq%5)}
				case 1:
					// New is-a edge between generated values.
					d.Op = knowledge.OpAddIsA
					d.Child = fmt.Sprintf("attr%02d-val%03d", 5+seq%2, 10+seq)
					d.Parent = fmt.Sprintf("attr%02d-val%03d", 5+seq%2, seq%3)
				default:
					// Fresh concept node.
					d.Op = knowledge.OpAddConcept
					d.Term = fmt.Sprintf("difftest-concept-%d", seq)
				}
				return d
			}

			for step := 0; step < 500; step++ {
				if step > 0 && step%60 == 0 {
					d := nextDelta()
					var want KnowledgeReport
					for i, e := range engines {
						rep, err := e.ApplyKnowledge(d)
						if err != nil {
							t.Fatalf("step %d: ApplyKnowledge on %s: %v", step, e.MatcherName(), err)
						}
						if i == 0 {
							want = rep
						} else if rep.Applied != want.Applied || rep.Changed != want.Changed {
							t.Fatalf("step %d: delta outcome diverged: %s got %+v, naive got %+v",
								step, e.MatcherName(), rep, want)
						}
					}
					continue
				}
				ev := shapes[rng.Intn(len(shapes))]
				want, err := ref.Publish(ev)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines[1:] {
					got, err := e.Publish(ev)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Matches, want.Matches) {
						t.Fatalf("step %d: %s disagrees with naive\n got %v\nwant %v\nevent %v",
							step, e.MatcherName(), got.Matches, want.Matches, ev)
					}
				}
			}
		})
	}
}

// TestDifferentialConcurrentPublishAndKnowledge drives publishers and a
// knowledge-delta writer against one engine at once. Correctness of the
// interleaving is covered by the sequential differential test; this one
// exists to run under -race: the stage snapshot swap and the re-index
// must tolerate publish/apply concurrency without data races.
func TestDifferentialConcurrentPublishAndKnowledge(t *testing.T) {
	gen, err := workload.New(workload.Config{Seed: 41, SynonymProb: 0.7, ConceptProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eng := newDifferentialEngine(t, gen, "counting")
	for _, s := range gen.Subscriptions(150) {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	shapes := gen.Events(20)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := eng.Publish(shapes[(w+i)%len(shapes)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 20; i++ {
			d := knowledge.Delta{
				Origin: "difftest", Epoch: "e1", Seq: uint64(i),
				Op:   knowledge.OpAddSynonym,
				Root: fmt.Sprintf("attr05-val%03d", i%4),
				Terms: []string{
					fmt.Sprintf("attr05-val%03d", 6+i%6),
				},
			}
			if _, err := eng.ApplyKnowledge(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := eng.Stats().Events; got != 800 {
		t.Fatalf("published %d events, want 800", got)
	}
}
