package rules

import (
	"fmt"
	"sync"
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/expr"
)

// naiveMatch is the evaluate-every-rule baseline the paper's indexing
// claim is measured against, and the oracle the index is held to: it
// evaluates every rule's parse tree, consulting no index and none of
// the atoms a rule stores. It lived in the engine as Options{Indexed:
// false} until the engine had only callers that wanted the index.
func naiveMatch(e *Engine, r expr.Resolver) ([]*Rule, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*Rule
	for _, rule := range e.rules {
		ok, err := tree(rule.source()).Match(r)
		if err != nil {
			return nil, fmt.Errorf("rules: %q: %w", rule.Name, err)
		}
		if ok {
			out = append(out, rule)
		}
	}
	sortRules(out)
	return out, nil
}

// trees caches the parse tree of each condition source naiveMatch has
// evaluated, so each is compiled once.
var trees sync.Map // string → *expr.Predicate

func tree(src string) *expr.Predicate {
	if p, ok := trees.Load(src); ok {
		return p.(*expr.Predicate)
	}
	p, err := expr.Compile(src)
	if err != nil {
		panic(err)
	}
	trees.Store(src, p)
	return p
}

// BenchmarkE4RulesNaive is the naive arm of the root package's
// BenchmarkE4Rules (same rule population, same event): what a match
// costs when every rule is evaluated.
func BenchmarkE4RulesNaive(b *testing.B) {
	for _, n := range []int{100, 10000} { // 100k takes too long per op for CI
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				cond := fmt.Sprintf("site = 'site%d' AND level >= %d", i%1000, i%10)
				if _, err := e.Add(fmt.Sprintf("r%d", i), cond, i%3, nil); err != nil {
					b.Fatal(err)
				}
			}
			ev := event.New("sensor", map[string]any{"site": "site7", "level": 5})
			if _, err := naiveMatch(e, ev); err != nil { // compiles the trees
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := naiveMatch(e, ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
