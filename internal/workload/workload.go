// Package workload generates random subscriptions and publications — the
// workload generator of the demonstration setup (paper §4: "We also
// include a workload generator that simulates many concurrent clients
// and companies sending their subscriptions and publications … The
// workload generator creates publications and subscriptions at random.")
//
// The generator is deterministic given its seed. It can synthesize not
// only the messages but also the knowledge structures they semantically
// relate through (synonym tables, concept trees, mapping chains), which
// is what the experiments of EXPERIMENTS.md sweep over.
package workload

import (
	"fmt"
	"math/rand"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

// Config controls the shape of the generated workload.
type Config struct {
	Seed int64

	// Vocabulary.
	Attributes    int     // distinct root attributes (default 20)
	ValuesPerAttr int     // distinct string values per attribute (default 50)
	NumericAttrs  int     // how many of the attributes are numeric (default Attributes/4)
	NumericRange  int     // numeric values are drawn from [0, NumericRange) (default 100)
	ZipfSkew      float64 // attribute popularity skew; 0 = uniform, >1 enables Zipf (default 1.2)

	// Subscription shape.
	PredsMin     int     // minimum predicates per subscription (default 1)
	PredsMax     int     // maximum predicates per subscription (default 4)
	EqualityFrac float64 // fraction of equality predicates; the rest are ranges (default 0.7)

	// Publication shape.
	PairsMin int // minimum pairs per publication (default 3)
	PairsMax int // maximum pairs per publication (default 8)

	// Semantic knowledge synthesized by BuildKB.
	SynonymsPerAttr int // synonym variants per root attribute (default 3)
	ConceptTrees    int // number of value-concept trees (default 4)
	ConceptDepth    int // depth of each tree (default 4)
	ConceptFanout   int // children per node (default 3)
	MappingChains   int // number of mapping-function chains (default 2)
	ChainLength     int // hops per chain (default 2)

	// Semantic usage in generated messages.
	SynonymProb float64 // probability an event attribute uses a synonym variant (default 0.5)
	ConceptProb float64 // probability a value is a concept-tree term (default 0.3)
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Attributes, 20)
	def(&c.ValuesPerAttr, 50)
	if c.NumericAttrs <= 0 {
		c.NumericAttrs = c.Attributes / 4
	}
	def(&c.NumericRange, 100)
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.2
	}
	def(&c.PredsMin, 1)
	def(&c.PredsMax, 4)
	if c.PredsMax < c.PredsMin {
		c.PredsMax = c.PredsMin
	}
	if c.EqualityFrac <= 0 || c.EqualityFrac > 1 {
		c.EqualityFrac = 0.7
	}
	def(&c.PairsMin, 3)
	def(&c.PairsMax, 8)
	if c.PairsMax < c.PairsMin {
		c.PairsMax = c.PairsMin
	}
	def(&c.SynonymsPerAttr, 3)
	def(&c.ConceptTrees, 4)
	def(&c.ConceptDepth, 4)
	def(&c.ConceptFanout, 3)
	def(&c.MappingChains, 2)
	def(&c.ChainLength, 2)
	if c.SynonymProb == 0 {
		c.SynonymProb = 0.5
	}
	if c.ConceptProb == 0 {
		c.ConceptProb = 0.3
	}
	return c
}

// KB is the synthesized knowledge base accompanying a workload: the
// synonym table, concept hierarchy and mapping functions that make the
// generated events and subscriptions semantically related.
type KB struct {
	Synonyms  *semantic.Synonyms
	Hierarchy *semantic.Hierarchy
	Mappings  *semantic.Mappings

	attrSyns   map[string][]string // root attr → synonym variants
	treeLevels [][][]string        // tree → level → terms (level 0 = root)
}

// Stage builds a semantic stage over the knowledge base.
func (kb *KB) Stage(cfg semantic.Config) *semantic.Stage {
	return semantic.NewStage(kb.Synonyms, kb.Hierarchy, kb.Mappings, cfg)
}

// Generator produces random subscriptions and publications.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf

	attrs   []string // root attributes
	numeric map[string]bool
	values  map[string][]string // root attr → string value pool
	kb      *KB
	nextSub message.SubID
}

// New builds a generator. The knowledge base is synthesized eagerly so
// that Subscriptions and Events can weave synonyms and concepts in.
func New(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		numeric: make(map[string]bool),
		values:  make(map[string][]string),
	}
	if cfg.ZipfSkew > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfSkew, 1, uint64(cfg.Attributes-1))
	}
	for i := 0; i < cfg.Attributes; i++ {
		attr := fmt.Sprintf("attr%02d", i)
		g.attrs = append(g.attrs, attr)
		if i < cfg.NumericAttrs {
			g.numeric[attr] = true
			continue
		}
		pool := make([]string, cfg.ValuesPerAttr)
		for v := range pool {
			pool[v] = fmt.Sprintf("%s-val%03d", attr, v)
		}
		g.values[attr] = pool
	}
	kb, err := g.buildKB()
	if err != nil {
		return nil, err
	}
	g.kb = kb
	return g, nil
}

// KB returns the synthesized knowledge base.
func (g *Generator) KB() *KB { return g.kb }

// buildKB synthesizes synonyms for every attribute, value-concept trees
// and mapping chains.
func (g *Generator) buildKB() (*KB, error) {
	kb := &KB{
		Synonyms:  semantic.NewSynonyms(),
		Hierarchy: semantic.NewHierarchy(),
		Mappings:  semantic.NewMappings(),
		attrSyns:  make(map[string][]string),
	}
	for _, attr := range g.attrs {
		var syns []string
		for s := 0; s < g.cfg.SynonymsPerAttr; s++ {
			syns = append(syns, fmt.Sprintf("%s~syn%d", attr, s))
		}
		if err := kb.Synonyms.AddGroup(attr, syns...); err != nil {
			return nil, fmt.Errorf("workload: building synonyms: %w", err)
		}
		kb.attrSyns[attr] = syns
	}
	for t := 0; t < g.cfg.ConceptTrees; t++ {
		levels := make([][]string, g.cfg.ConceptDepth+1)
		root := fmt.Sprintf("concept%d", t)
		levels[0] = []string{root}
		for d := 1; d <= g.cfg.ConceptDepth; d++ {
			for _, parent := range levels[d-1] {
				for f := 0; f < g.cfg.ConceptFanout; f++ {
					child := fmt.Sprintf("%s.%d", parent, f)
					if err := kb.Hierarchy.AddIsA(child, parent); err != nil {
						return nil, fmt.Errorf("workload: building hierarchy: %w", err)
					}
					levels[d] = append(levels[d], child)
				}
			}
		}
		kb.treeLevels = append(kb.treeLevels, levels)
	}
	for c := 0; c < g.cfg.MappingChains; c++ {
		for k := 0; k < g.cfg.ChainLength; k++ {
			src := fmt.Sprintf("chain%d-hop%d", c, k)
			dst := fmt.Sprintf("chain%d-hop%d", c, k+1)
			f := semantic.FuncOf{
				FName:     fmt.Sprintf("chain%d-rule%d", c, k),
				FTriggers: []string{src},
				FApply: func(src, dst string) func(message.Event) []message.Pair {
					return func(e message.Event) []message.Pair {
						v, ok := e.Get(src)
						if !ok {
							return nil
						}
						f, ok := v.AsFloat()
						if !ok {
							return nil
						}
						return []message.Pair{{Attr: dst, Val: message.Int(int64(f) + 1)}}
					}
				}(src, dst),
			}
			if err := kb.Mappings.Add(f); err != nil {
				return nil, fmt.Errorf("workload: building mappings: %w", err)
			}
		}
	}
	return kb, nil
}

// pickAttr draws a root attribute with Zipf-skewed popularity.
func (g *Generator) pickAttr() string {
	if g.zipf != nil {
		return g.attrs[int(g.zipf.Uint64())]
	}
	return g.attrs[g.rng.Intn(len(g.attrs))]
}

// eventAttrName maps a root attribute to the surface form a publisher
// would use: the root itself or, with SynonymProb, one of its synonyms.
func (g *Generator) eventAttrName(root string) string {
	syns := g.kb.attrSyns[root]
	if len(syns) > 0 && g.rng.Float64() < g.cfg.SynonymProb {
		return syns[g.rng.Intn(len(syns))]
	}
	return root
}

// conceptTerm draws a term from a random tree at the given level
// (0 = most general root, ConceptDepth = leaves).
func (g *Generator) conceptTerm(level int) string {
	if len(g.kb.treeLevels) == 0 {
		return "concept-less"
	}
	levels := g.kb.treeLevels[g.rng.Intn(len(g.kb.treeLevels))]
	if level < 0 {
		level = 0
	}
	if level > len(levels)-1 {
		level = len(levels) - 1
	}
	terms := levels[level]
	return terms[g.rng.Intn(len(terms))]
}

// stringValue draws a plain string value for the attribute.
func (g *Generator) stringValue(root string) string {
	pool := g.values[root]
	if len(pool) == 0 {
		return root + "-val000"
	}
	return pool[g.rng.Intn(len(pool))]
}

// Subscription generates one subscription. Subscriptions use ROOT
// attribute names and — when drawing concept terms — GENERAL terms
// (levels 0..depth-1), matching the paper's model of subscribers asking
// for general concepts while publishers supply specialized ones.
func (g *Generator) Subscription(subscriber string) message.Subscription {
	g.nextSub++
	n := g.cfg.PredsMin + g.rng.Intn(g.cfg.PredsMax-g.cfg.PredsMin+1)
	preds := make([]message.Predicate, 0, n)
	seen := make(map[string]bool, n)
	for len(preds) < n {
		root := g.pickAttr()
		if seen[root] {
			continue
		}
		seen[root] = true
		if g.numeric[root] {
			x := int64(g.rng.Intn(g.cfg.NumericRange))
			if g.rng.Float64() < g.cfg.EqualityFrac {
				preds = append(preds, message.Pred(root, message.OpEq, message.Int(x)))
			} else if g.rng.Intn(2) == 0 {
				preds = append(preds, message.Pred(root, message.OpGe, message.Int(x)))
			} else {
				preds = append(preds, message.Pred(root, message.OpLe, message.Int(x)))
			}
			continue
		}
		var val string
		if g.rng.Float64() < g.cfg.ConceptProb {
			val = g.conceptTerm(g.rng.Intn(g.cfg.ConceptDepth)) // general term
		} else {
			val = g.stringValue(root)
		}
		preds = append(preds, message.Pred(root, message.OpEq, message.String(val)))
	}
	return message.NewSubscription(g.nextSub, subscriber, preds...)
}

// Event generates one publication. Events use synonym attribute variants
// with SynonymProb and SPECIALIZED concept terms (leaves) with
// ConceptProb.
func (g *Generator) Event() message.Event {
	n := g.cfg.PairsMin + g.rng.Intn(g.cfg.PairsMax-g.cfg.PairsMin+1)
	var ev message.Event
	for i := 0; i < n; i++ {
		root := g.pickAttr()
		attr := g.eventAttrName(root)
		if g.numeric[root] {
			ev.Add(attr, message.Int(int64(g.rng.Intn(g.cfg.NumericRange))))
			continue
		}
		if g.rng.Float64() < g.cfg.ConceptProb {
			ev.Add(attr, message.String(g.conceptTerm(g.cfg.ConceptDepth))) // leaf
		} else {
			ev.Add(attr, message.String(g.stringValue(root)))
		}
	}
	return ev
}

// ChainSeed returns an event that triggers mapping chain c from hop 0,
// for the fixpoint benchmark (BenchmarkFixpoint).
func (g *Generator) ChainSeed(c int) message.Event {
	return message.E(fmt.Sprintf("chain%d-hop0", c%maxInt(1, g.cfg.MappingChains)), 0)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Subscriptions generates n subscriptions for numbered subscribers.
func (g *Generator) Subscriptions(n int) []message.Subscription {
	out := make([]message.Subscription, n)
	for i := range out {
		out[i] = g.Subscription(fmt.Sprintf("client-%d", i%97))
	}
	return out
}

// Events generates n publications.
func (g *Generator) Events(n int) []message.Event {
	out := make([]message.Event, n)
	for i := range out {
		out[i] = g.Event()
	}
	return out
}
