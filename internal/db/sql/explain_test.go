package sql

import (
	"strings"
	"testing"

	"repro/internal/tpcd"
)

func TestSplitExplain(t *testing.T) {
	cases := []struct {
		src  string
		mode ExplainMode
		rest string
	}{
		{"select 1", ExplainNone, "select 1"},
		{"explain select 1", ExplainPlan, "select 1"},
		{"EXPLAIN SELECT 1", ExplainPlan, "SELECT 1"},
		{"  \t\nexplain   select 1", ExplainPlan, "select 1"},
		{"explain analyze select 1", ExplainAnalyze, "select 1"},
		{"Explain Analyze Select 1", ExplainAnalyze, "Select 1"},
		{"EXPLAIN\nANALYZE\nselect 1", ExplainAnalyze, "select 1"},
		// Identifiers that merely start with the keyword are not cut.
		{"explainer select 1", ExplainNone, "explainer select 1"},
		{"explain analyzer", ExplainPlan, "analyzer"},
		{"explain2 select 1", ExplainNone, "explain2 select 1"},
		// The remaining text must be byte-identical — the result cache
		// canonicalizes it exactly as if EXPLAIN had not been written.
		{"explain select  a ,b from t", ExplainPlan, "select  a ,b from t"},
		{"explain", ExplainPlan, ""},
		{"explain analyze", ExplainAnalyze, ""},
		{"", ExplainNone, ""},
	}
	for _, c := range cases {
		mode, rest := SplitExplain(c.src)
		if mode != c.mode || rest != c.rest {
			t.Errorf("SplitExplain(%q) = (%v, %q), want (%v, %q)",
				c.src, mode, rest, c.mode, c.rest)
		}
	}
}

// splitShowWhole is SplitShow without its first-token fast path:
// lower-case and split the whole text, then decide. Kept as the
// reference the fast path must agree with.
func splitShowWhole(src string) (target string, ok bool) {
	fields := strings.Fields(strings.ToLower(strings.TrimRight(strings.TrimSpace(src), "; \t\r\n")))
	if len(fields) != 2 || fields[0] != "show" {
		return "", false
	}
	return fields[1], true
}

// TestSplitShow: deciding on the first token changes no answer — not
// for SHOW in any dress, not for text that merely starts like it, and
// not for the queries the check exists to get out of the way of.
func TestSplitShow(t *testing.T) {
	cases := []struct {
		sql    string
		target string
		ok     bool
	}{
		{"SHOW stats", "stats", true},
		{"show stats", "stats", true},
		{"  show\tConns ;", "conns", true},
		{"\n\tShOw TABLES;;\r\n", "tables", true},
		{"show  slow", "slow", true},
		{"show\u00a0pool", "pool", true}, // any Unicode space separates
		{"show", "", false},
		{"show;", "", false},
		{"show ;", "", false},
		{"show a b", "", false},
		{"showcase", "", false},
		{"showcase x", "", false},
		{"show\x00stats", "", false},
		{"sh", "", false},
		{"", "", false},
		{"   ", "", false},
		{"ſhow stats", "", false}, // long s folds to s, but is not s
		{"select l_orderkey from show", "", false},
		{"select * from lineitem where l_comment = ' show stats'", "", false},
		{"explain show stats", "", false},
	}
	for _, qn := range tpcd.AllQueryNumbers() {
		q, _ := tpcd.Query(qn)
		cases = append(cases, struct {
			sql    string
			target string
			ok     bool
		}{q, "", false})
	}
	for _, tc := range cases {
		target, ok := SplitShow(tc.sql)
		if target != tc.target || ok != tc.ok {
			t.Errorf("SplitShow(%q) = (%q, %v), want (%q, %v)", tc.sql, target, ok, tc.target, tc.ok)
		}
		if wt, wok := splitShowWhole(tc.sql); target != wt || ok != wok {
			t.Errorf("SplitShow(%q) = (%q, %v), the whole-text parse says (%q, %v)", tc.sql, target, ok, wt, wok)
		}
	}
}
