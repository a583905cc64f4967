package server

import (
	"strings"
	"testing"

	"repro/dsdb"
)

// parseShowWhole is parseShow as it was before it looked at the first
// token only: lower-case and split the whole text, then decide. Kept
// as the reference the fast path must agree with.
func parseShowWhole(sql string) (target string, ok bool) {
	fields := strings.Fields(strings.ToLower(strings.TrimRight(strings.TrimSpace(sql), "; \t\r\n")))
	if len(fields) != 2 || fields[0] != "show" {
		return "", false
	}
	return fields[1], true
}

// TestParseShow: deciding on the first token changes no answer — not
// for SHOW in any dress, not for text that merely starts like it, and
// not for the queries the check exists to get out of the way of.
func TestParseShow(t *testing.T) {
	cases := []struct {
		sql    string
		target string
		ok     bool
	}{
		{"SHOW stats", "stats", true},
		{"show stats", "stats", true},
		{"  show\tConns ;", "conns", true},
		{"\n\tShOw TABLES;;\r\n", "tables", true},
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
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		cases = append(cases, struct {
			sql    string
			target string
			ok     bool
		}{q, "", false})
	}
	for _, tc := range cases {
		target, ok := parseShow(tc.sql)
		if target != tc.target || ok != tc.ok {
			t.Errorf("parseShow(%q) = (%q, %v), want (%q, %v)", tc.sql, target, ok, tc.target, tc.ok)
		}
		if wt, wok := parseShowWhole(tc.sql); target != wt || ok != wok {
			t.Errorf("parseShow(%q) = (%q, %v), the whole-text parse says (%q, %v)", tc.sql, target, ok, wt, wok)
		}
	}
}
