package obs

import (
	"strconv"
	"strings"
)

// Kind is how a section entry's value behaves over time; its value is
// the Prometheus type name.
type Kind string

const (
	// Counter only grows while the process runs.
	Counter Kind = "counter"
	// Gauge is a point-in-time reading that can go down.
	Gauge Kind = "gauge"
)

// Entry is one named value of a Section.
type Entry struct {
	Name  string
	Kind  Kind
	Value int64
}

// Section is one group of counters, declared once by the snapshot type
// it is read from (server.Stats, dsdb.PoolStats, qcache.Stats,
// dsdb.WALStats, wcap.Stats) and rendered from that declaration alone:
// the wire stat pairs, SHOW <Name>, /metrics, the dsload and dsreplay
// JSON reports and dsdbd's shutdown summary are all loops over a list
// of sections. A new counter is one more Counter or Gauge call in its
// snapshot's Section method.
type Section struct {
	// Name is the SHOW target and the wire-pair prefix: the entry hits
	// of section "pool" is the pair pool_hits. The server's own
	// counters are the one section with no name; their pairs are the
	// bare entry names.
	Name string
	// Prom is the Prometheus prefix after "dsdb_". Counters of a
	// section with a prefix also take the conventional "_total" suffix.
	Prom string
	// Optional marks a section whose subsystem can be off (the result
	// cache, the workload capture). SHOW renders it with a leading
	// enabled row. Disabled, it is absent from the wire pairs and
	// /metrics, and SHOW reports every entry as zero.
	Optional, Disabled bool
	Entries            []Entry
}

// Counter appends a counter entry.
func (s *Section) Counter(name string, v uint64) {
	s.Entries = append(s.Entries, Entry{Name: name, Kind: Counter, Value: int64(v)})
}

// Gauge appends a gauge entry.
func (s *Section) Gauge(name string, v int64) {
	s.Entries = append(s.Entries, Entry{Name: name, Kind: Gauge, Value: v})
}

// Key returns e's wire-pair name: Name_entry, or the bare entry name in
// the unnamed section.
func (s Section) Key(e Entry) string {
	if s.Name == "" {
		return e.Name
	}
	return s.Name + "_" + e.Name
}

// Metric returns e's Prometheus series name: "dsdb_" + Prom + the entry
// name, plus "_total" on a counter of a prefixed section.
func (s Section) Metric(e Entry) string {
	name := "dsdb_" + s.Prom + e.Name
	if e.Kind == Counter && s.Prom != "" {
		name += "_total"
	}
	return name
}

// String renders the section as one line of Key=value fields, the form
// of dsdbd's shutdown summary.
func (s Section) String() string {
	fields := make([]string, len(s.Entries))
	for i, e := range s.Entries {
		fields[i] = s.Key(e) + "=" + strconv.FormatInt(e.Value, 10)
	}
	return strings.Join(fields, " ")
}
