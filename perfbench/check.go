package main

import (
	"cmp"
	"fmt"
	"slices"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/transport"
)

// checkAnswer verifies what holds for every answer, whatever the store:
// every match lies in the range of the sub-query on its attribute, and
// the owners, sorted and distinct, are exactly those that appear in every
// sub-query's matches.
func checkAnswer(q transport.BatchQuery, owners []string, matches []resource.Info) error {
	// seen[o] has bit i set when owner o has a match for sub-query i.
	seen := make(map[string]uint64)
	for _, m := range matches {
		i := slices.IndexFunc(q.Subs, func(s resource.SubQuery) bool { return s.Attr == m.Attr })
		if i < 0 {
			return fmt.Errorf("match %v has no sub-query on its attribute", m)
		}
		if !q.Subs[i].Matches(m.Value) {
			return fmt.Errorf("match %v outside %v", m, q.Subs[i])
		}
		seen[m.Owner] |= 1 << i
	}
	all := uint64(1)<<len(q.Subs) - 1
	for i, o := range owners {
		if i > 0 && owners[i-1] >= o {
			return fmt.Errorf("owners %v not sorted and distinct", owners)
		}
		if seen[o] != all {
			return fmt.Errorf("owner %s lacks a match for some sub-query", o)
		}
	}
	joined := 0
	for _, bits := range seen {
		if bits == all {
			joined++
		}
	}
	if joined != len(owners) {
		return fmt.Errorf("%d owners match every sub-query, the answer names %d", joined, len(owners))
	}
	return nil
}

// answer is a query's exact answer: the sorted owners and the matches in
// the order sortMatches puts them.
type answer struct {
	owners  []string
	matches []resource.Info
}

func sortMatches(matches []resource.Info) []resource.Info {
	matches = slices.Clone(matches)
	slices.SortFunc(matches, func(a, b resource.Info) int {
		return cmp.Or(cmp.Compare(a.Attr, b.Attr), cmp.Compare(a.Owner, b.Owner), cmp.Compare(a.Value, b.Value))
	})
	return matches
}

// expectedAnswers asks a discovery.Oracle holding store for the exact
// answer to every query.
func expectedAnswers(store []resource.Info, pool []transport.BatchQuery) ([]answer, error) {
	schema, err := newSchema()
	if err != nil {
		return nil, err
	}
	oracle := discovery.NewOracle(schema)
	for _, info := range store {
		oracle.Register(info)
	}
	want := make([]answer, len(pool))
	for i, q := range pool {
		res, err := oracle.Discover(resource.Query{Subs: q.Subs, Requester: q.Requester})
		if err != nil {
			return nil, err
		}
		var matches []resource.Info
		for _, sub := range q.Subs {
			matches = append(matches, res.PerAttr[sub.Attr]...)
		}
		want[i] = answer{owners: res.Owners, matches: sortMatches(matches)}
	}
	return want, nil
}

// checkExact verifies an answer against the oracle's: the same owners and
// the same multiset of matches.
func checkExact(want answer, owners []string, matches []resource.Info) error {
	if !slices.Equal(owners, want.owners) || !slices.Equal(sortMatches(matches), want.matches) {
		return fmt.Errorf("answer has %d matches and owners %v, the oracle %d matches and owners %v (or the match multisets differ)",
			len(matches), owners, len(want.matches), want.owners)
	}
	return nil
}
