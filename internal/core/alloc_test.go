package core

import (
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
