package core

import (
	"fmt"
	"sort"

	"stopss/internal/knowledge"
	"stopss/internal/message"
)

// KnowledgeReport is the engine-level outcome of applying one knowledge
// delta: the base-level outcome plus what re-indexing it forced.
type KnowledgeReport struct {
	ID          string   // the delta's stamped identity (origin#epoch/seq)
	Applied     bool     // delta newly appended to the log
	Duplicate   bool     // delta already known; nothing changed
	Rejected    bool     // delta logged but its operation failed deterministically
	Refolded    bool     // out-of-merge-order arrival re-folded a log suffix
	Changed     bool     // the semantic structures changed
	FullReindex bool     // re-indexing fell back to the full subscription set
	Reindexed   int      // subscriptions re-indexed
	Affected    []string // terms whose canonical form changed (drives re-indexing)
	Version     knowledge.Version
}

// KBFullReindexTerms is the incremental re-index threshold: a delta
// touching more distinct terms than this re-indexes the whole
// subscription set instead of scanning per-subscription. Beyond this
// point the per-term bookkeeping costs more than it saves.
const KBFullReindexTerms = 128

// Knowledge implements PubSub.
func (e *Engine) Knowledge() *knowledge.Base { return e.kb }

// ApplyKnowledge implements PubSub: fold the delta into the base, swap
// the stage snapshot, and re-index affected subscriptions, all under
// the engine lock so no publication ever matches against a
// half-updated (new stage, old index) pairing. The base reports the
// exact changed-term set even when the arrival re-folded a log suffix,
// so the re-index is incremental on every path — a full re-index only
// ever happens past the KBFullReindexTerms threshold.
func (e *Engine) ApplyKnowledge(d knowledge.Delta) (KnowledgeReport, error) {
	if e.kb == nil {
		return KnowledgeReport{}, fmt.Errorf("core: no knowledge base bound to this engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	out, err := e.kb.Apply(d)
	if err != nil {
		return KnowledgeReport{}, err
	}
	rep := KnowledgeReport{
		ID:        d.ID(),
		Applied:   out.Applied,
		Duplicate: out.Duplicate,
		Rejected:  out.Rejected,
		Refolded:  out.Refolded,
		Changed:   out.Changed,
		Affected:  out.Affected,
		Version:   e.kb.Version(),
	}
	if !out.Changed {
		return rep, nil
	}
	e.stage.Replace(out.Synonyms, out.Hierarchy, out.Mappings)
	rep.Reindexed, rep.FullReindex, err = e.reindexKnowledgeLocked(out.Affected, false)
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// ReindexKnowledge re-indexes the subscriptions whose original form
// mentions an affected term (every subscription when full), under the
// engine lock, and reports how many it re-indexed. ApplyKnowledge runs
// the same re-index itself; this entry point lets benchmarks price the
// incremental path against a full re-index.
func (e *Engine) ReindexKnowledge(affected []string, full bool) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, _, err := e.reindexKnowledgeLocked(affected, full)
	return n, err
}

// reindexKnowledgeLocked re-indexes subscriptions whose original form
// mentions an affected term — the only subscriptions whose canonical
// (indexed) form a knowledge delta can change, since subscriptions pass
// only the synonym stage and the base reports exactly the terms whose
// canonical form changed. Past KBFullReindexTerms distinct terms it
// falls back to re-indexing everything. Callers hold e.mu.
func (e *Engine) reindexKnowledgeLocked(affected []string, full bool) (int, bool, error) {
	if e.mode != Semantic {
		// Syntactic mode indexes subscriptions verbatim; nothing stored
		// depends on the knowledge base. A later SetMode re-canonicalizes
		// from originals under the then-current stage anyway.
		return 0, full, nil
	}
	if !full && len(affected) > KBFullReindexTerms {
		full = true
	}
	var ids []message.SubID
	if full {
		e.stats.KBFullReindexes++
		ids = make([]message.SubID, 0, len(e.originals))
		for id := range e.originals {
			ids = append(ids, id)
		}
	} else {
		if len(affected) == 0 {
			return 0, false, nil // hierarchy/mapping delta: index untouched
		}
		set := make(map[string]bool, len(affected))
		for _, t := range affected {
			set[t] = true
		}
		for id, s := range e.originals {
			if s.TouchesTerms(set) {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Staged re-index (new forms validated before any removal), so a
	// failure cannot leave the matcher missing subscriptions that
	// e.originals still lists.
	if err := e.reindexIDsLocked(ids); err != nil {
		return 0, full, err
	}
	e.stats.KBReindexed += uint64(len(ids))
	return len(ids), full, nil
}
