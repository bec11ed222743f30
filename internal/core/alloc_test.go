package core

import (
	"runtime"
	"testing"

	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// publishAllocBound caps the allocations of one semantic-mode Publish
// on the job-finder population. Saturating one event in place and
// matching it once costs about 27; a derived-event frontier (a Clone
// per derivation, a signature per event and a match per event) cost
// about 320.
const publishAllocBound = 60

// TestPublishAllocations guards the publish path's allocation count on
// the job-finder population of the fanout and line3 benchmark workloads.
func TestPublishAllocations(t *testing.T) {
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ont.Stage(semantic.FullConfig()))
	jf := workload.NewJobFinder(2003)
	for _, s := range jf.Recruiters(500) {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	resumes := jf.Resumes(64)
	i := 0
	allocs := testing.AllocsPerRun(512, func() {
		if _, err := eng.Publish(resumes[i%len(resumes)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per Publish", allocs)
	if allocs > publishAllocBound {
		t.Errorf("Publish allocates %.1f times per publication, bound %d", allocs, publishAllocBound)
	}
}

// retainedBytesBound caps the live heap one subscription adds to an
// engine, measured on an 8 000-subscription population drawn with the
// selective benchmark workload's vocabulary. The matcher keeps its own
// unique-predicate slots per subscription and nothing else: 730 B. With
// a plan cache (every compiled plan kept, shared between identical
// texts, plus per-matcher plan slots and posting counts) it was 1 396 B.
const retainedBytesBound = 1000

// TestSubscriptionRetainedBytes guards what the engine keeps per
// subscription: live-heap growth after GC over a whole population,
// divided by its size. The population is generated before the first
// reading and kept alive past the second, so only what the engine
// retains is counted.
func TestSubscriptionRetainedBytes(t *testing.T) {
	g, err := workload.New(workload.Config{
		Seed: 2003, Attributes: 40, ValuesPerAttr: 30, NumericAttrs: 10,
		NumericRange: 100, ZipfSkew: 1.2, PredsMin: 1, PredsMax: 4,
		EqualityFrac: 0.7, SynonymsPerAttr: 3, ConceptTrees: 6,
		ConceptDepth: 4, ConceptFanout: 3, MappingChains: 4, ChainLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	subs := g.Subscriptions(n)
	eng := NewEngine(g.KB().Stage(semantic.FullConfig()))
	before := liveHeap()
	for _, s := range subs {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(subs)
	runtime.KeepAlive(eng)
	perSub := (int64(after) - int64(before)) / n
	t.Logf("%d B of live heap per subscription", perSub)
	if perSub > retainedBytesBound {
		t.Errorf("each subscription retains %d B of live heap, bound %d", perSub, retainedBytesBound)
	}
}

// liveHeap reports the bytes of live heap objects after two full
// collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
