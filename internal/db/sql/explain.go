package sql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// ExplainMode classifies a query's EXPLAIN prefix.
type ExplainMode int

const (
	// ExplainNone is an ordinary statement (no EXPLAIN prefix).
	ExplainNone ExplainMode = iota
	// ExplainPlan renders the plan without executing it.
	ExplainPlan
	// ExplainAnalyze executes the plan under per-operator
	// instrumentation and renders it with actual row counts, loop
	// counts, wall times and buffer-pool traffic.
	ExplainAnalyze
)

// SplitExplain strips a leading EXPLAIN [ANALYZE] from a statement,
// returning the mode and the remaining statement text. The scan is
// case-insensitive and purely lexical (keyword boundaries, not
// substrings), so the SELECT text that remains is byte-identical to
// what the user wrote — the parser, the canonicalizer and the result
// cache all see the query exactly as if EXPLAIN had not been there.
// Statements without the prefix come back unchanged as ExplainNone.
func SplitExplain(src string) (ExplainMode, string) {
	rest, ok := cutKeyword(src, "explain")
	if !ok {
		return ExplainNone, src
	}
	if r2, ok := cutKeyword(rest, "analyze"); ok {
		return ExplainAnalyze, r2
	}
	return ExplainPlan, rest
}

// SplitShow recognizes a SHOW statement — "show" and one target, any
// case, trailing semicolons allowed — and returns the target
// lower-cased; ok is false for anything else. Every served query
// passes through here, and almost none is a SHOW: it decides on the
// first token — "show", any case, then white space — before paying to
// lower-case and split the whole text.
func SplitShow(src string) (target string, ok bool) {
	head := strings.TrimLeftFunc(src, unicode.IsSpace)
	if len(head) < 5 || !strings.EqualFold(head[:4], "show") {
		return "", false
	}
	if r, _ := utf8.DecodeRuneInString(head[4:]); !unicode.IsSpace(r) {
		return "", false
	}
	fields := strings.Fields(strings.ToLower(strings.TrimRight(strings.TrimSpace(src), "; \t\r\n")))
	if len(fields) != 2 || fields[0] != "show" {
		return "", false
	}
	return fields[1], true
}

// cutKeyword strips one leading SQL keyword (case-insensitive,
// terminated by a non-identifier byte) plus the whitespace after it.
func cutKeyword(src, kw string) (string, bool) {
	s := strings.TrimLeft(src, " \t\r\n")
	if len(s) < len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return src, false
	}
	tail := s[len(kw):]
	if tail != "" && (isAlpha(tail[0]) || isDigit(tail[0])) {
		return src, false // identifier that merely starts with the keyword
	}
	return strings.TrimLeft(tail, " \t\r\n"), true
}
