// Package tpcd generates the TPC-D benchmark database (the 8-table
// decision-support schema at a configurable scale factor) and defines
// the paper's training and test query sets. The generator is a
// deterministic, seeded miniature of dbgen: cardinalities, key
// structure, foreign-key references, value domains and date ranges
// follow the specification; text columns use compact synthetic
// vocabularies.
package tpcd

import (
	"fmt"
	"math/rand"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/value"
)

// IndexKind selects the paper's Btree-indexed or Hash-indexed database.
type IndexKind = catalog.IndexKind

// Config drives generation.
type Config struct {
	// SF is the scale factor; SF=1 is the standard 1 GB database
	// (6M lineitem rows). The paper uses 0.1; the experiments here
	// default far smaller to keep runs laptop-scale.
	SF float64
	// Seed makes generation deterministic.
	Seed int64
	// Indexes picks B-tree or hash indices (the paper builds one
	// database of each kind).
	Indexes IndexKind
}

// Cardinality of each table at SF=1, per the TPC-D specification.
var baseCard = map[string]int{
	"region":   5,
	"nation":   25,
	"supplier": 10000,
	"customer": 150000,
	"part":     200000,
	"partsupp": 800000,
	"orders":   1500000,
	"lineitem": 6000000, // approximate; dbgen draws 1-7 items per order
}

// Cardinality returns a table's row count at the given scale factor.
func Cardinality(table string, sf float64) int {
	n := baseCard[table]
	if table == "region" || table == "nation" {
		return n // fixed-size tables
	}
	c := int(float64(n) * sf)
	if c < 1 {
		c = 1
	}
	return c
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipmodes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var returnflags = []string{"R", "A", "N"}
var linestatus = []string{"O", "F"}
var types1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var types2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var types3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
var containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP PKG", "JUMBO PKG"}
var colors = []string{"almond", "antique", "aquamarine", "azure", "beige", "blush",
	"chartreuse", "chocolate", "coral", "cornflower", "cream", "cyan", "dark", "deep",
	"dim", "dodger", "drab", "firebrick", "forest", "frosted", "gainsboro", "ghost",
	"goldenrod", "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
	"lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta",
	"maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo",
	"navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru",
	"pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy",
	"royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate",
	"smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise",
	"violet", "wheat", "white", "yellow"}

func col(name string, t value.Type) catalog.Column { return catalog.Column{Name: name, Type: t} }

// Schemas returns the 8 TPC-D table schemas (column subset sufficient
// for the query set; all names follow the specification).
func Schemas() map[string]*catalog.Schema {
	return map[string]*catalog.Schema{
		"region": catalog.NewSchema(
			col("r_regionkey", value.Int), col("r_name", value.Str)),
		"nation": catalog.NewSchema(
			col("n_nationkey", value.Int), col("n_name", value.Str),
			col("n_regionkey", value.Int)),
		"supplier": catalog.NewSchema(
			col("s_suppkey", value.Int), col("s_name", value.Str),
			col("s_nationkey", value.Int), col("s_acctbal", value.Float)),
		"customer": catalog.NewSchema(
			col("c_custkey", value.Int), col("c_name", value.Str),
			col("c_nationkey", value.Int), col("c_mktsegment", value.Str),
			col("c_acctbal", value.Float)),
		"part": catalog.NewSchema(
			col("p_partkey", value.Int), col("p_name", value.Str),
			col("p_type", value.Str), col("p_size", value.Int),
			col("p_container", value.Str), col("p_retailprice", value.Float),
			col("p_brand", value.Str)),
		"partsupp": catalog.NewSchema(
			col("ps_partkey", value.Int), col("ps_suppkey", value.Int),
			col("ps_availqty", value.Int), col("ps_supplycost", value.Float)),
		"orders": catalog.NewSchema(
			col("o_orderkey", value.Int), col("o_custkey", value.Int),
			col("o_orderstatus", value.Str), col("o_totalprice", value.Float),
			col("o_orderdate", value.Date), col("o_orderpriority", value.Str),
			col("o_shippriority", value.Int)),
		"lineitem": catalog.NewSchema(
			col("l_orderkey", value.Int), col("l_partkey", value.Int),
			col("l_suppkey", value.Int), col("l_linenumber", value.Int),
			col("l_quantity", value.Float), col("l_extendedprice", value.Float),
			col("l_discount", value.Float), col("l_tax", value.Float),
			col("l_returnflag", value.Str), col("l_linestatus", value.Str),
			col("l_shipdate", value.Date), col("l_commitdate", value.Date),
			col("l_receiptdate", value.Date), col("l_shipmode", value.Str),
			col("l_shipinstruct", value.Str)),
	}
}

// pk/fk index plan: unique indices on primary keys, multi-entry
// indices on foreign keys, as the paper's database setup describes.
var indexPlan = []struct {
	table, column string
	unique        bool
}{
	{"region", "r_regionkey", true},
	{"nation", "n_nationkey", true},
	{"nation", "n_regionkey", false},
	{"supplier", "s_suppkey", true},
	{"supplier", "s_nationkey", false},
	{"customer", "c_custkey", true},
	{"customer", "c_nationkey", false},
	{"part", "p_partkey", true},
	{"partsupp", "ps_partkey", false},
	{"partsupp", "ps_suppkey", false},
	{"orders", "o_orderkey", true},
	{"orders", "o_custkey", false},
	{"orders", "o_orderdate", false},
	{"lineitem", "l_orderkey", false},
	{"lineitem", "l_partkey", false},
	{"lineitem", "l_suppkey", false},
	{"lineitem", "l_shipdate", false},
}

// TableNames lists the 8 TPC-D tables in load order.
var TableNames = []string{"region", "nation", "supplier", "customer",
	"part", "partsupp", "orders", "lineitem"}

// Load generates the TPC-D schema and data into an existing (empty)
// database, building indices after the load (bulk-load order, as
// dbgen + CREATE INDEX would). Generation is deterministic: the same
// Config.Seed always produces an identical database.
func Load(db *engine.DB, cfg Config) error {
	schemas := Schemas()
	for _, t := range TableNames {
		if _, err := db.CreateTable(t, schemas[t]); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := load(db, cfg, rng); err != nil {
		return err
	}
	for _, ix := range indexPlan {
		if err := db.CreateIndex(ix.table, ix.column, cfg.Indexes, ix.unique); err != nil {
			return err
		}
	}
	return db.Flush()
}

func load(db *engine.DB, cfg Config, rng *rand.Rand) error {
	sf := cfg.SF
	v := func(vals ...value.Value) []value.Value { return vals }
	pick := func(list []string) value.Value { return value.NewStr(list[rng.Intn(len(list))]) }
	date := func(loYear, hiYear int) value.Value {
		y := loYear + rng.Intn(hiYear-loYear+1)
		m := 1 + rng.Intn(12)
		d := 1 + rng.Intn(28)
		return value.NewDate(value.MakeDate(y, m, d))
	}

	// region, nation: fixed.
	for i, r := range regions {
		if err := db.Insert("region", v(value.NewInt(int64(i)), value.NewStr(r))); err != nil {
			return err
		}
	}
	for i, n := range nations {
		if err := db.Insert("nation", v(value.NewInt(int64(i)),
			value.NewStr(n.name), value.NewInt(int64(n.region)))); err != nil {
			return err
		}
	}

	nSupp := Cardinality("supplier", sf)
	for i := 1; i <= nSupp; i++ {
		if err := db.Insert("supplier", v(
			value.NewInt(int64(i)),
			value.NewStr(fmt.Sprintf("Supplier#%09d", i)),
			value.NewInt(int64(rng.Intn(len(nations)))),
			value.NewFloat(float64(rng.Intn(999999))/100-1000),
		)); err != nil {
			return err
		}
	}

	nCust := Cardinality("customer", sf)
	for i := 1; i <= nCust; i++ {
		if err := db.Insert("customer", v(
			value.NewInt(int64(i)),
			value.NewStr(fmt.Sprintf("Customer#%09d", i)),
			value.NewInt(int64(rng.Intn(len(nations)))),
			pick(segments),
			value.NewFloat(float64(rng.Intn(999999))/100-1000),
		)); err != nil {
			return err
		}
	}

	nPart := Cardinality("part", sf)
	for i := 1; i <= nPart; i++ {
		ptype := types1[rng.Intn(len(types1))] + " " +
			types2[rng.Intn(len(types2))] + " " + types3[rng.Intn(len(types3))]
		pname := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))]
		if err := db.Insert("part", v(
			value.NewInt(int64(i)),
			value.NewStr(pname),
			value.NewStr(ptype),
			value.NewInt(int64(1+rng.Intn(50))),
			pick(containers),
			value.NewFloat(900+float64(i%1000)/10),
			value.NewStr(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
		)); err != nil {
			return err
		}
	}

	// partsupp: 4 suppliers per part (spec structure).
	if nSupp > 0 {
		for p := 1; p <= nPart; p++ {
			for j := 0; j < 4; j++ {
				s := 1 + (p+j*(nSupp/4+1))%nSupp
				if err := db.Insert("partsupp", v(
					value.NewInt(int64(p)),
					value.NewInt(int64(s)),
					value.NewInt(int64(1+rng.Intn(9999))),
					value.NewFloat(1+float64(rng.Intn(99999))/100),
				)); err != nil {
					return err
				}
			}
		}
	}

	// orders and lineitem: 1–7 lineitems per order, dates 1992–1998
	// with l_shipdate = o_orderdate + 1..121 days.
	nOrd := Cardinality("orders", sf)
	orderkey := int64(0)
	for i := 1; i <= nOrd; i++ {
		orderkey += 1 + int64(rng.Intn(3)) // sparse keys, as in dbgen
		cust := int64(1 + rng.Intn(nCust))
		od := date(1992, 1998)
		nl := 1 + rng.Intn(7)
		var total float64
		for ln := 1; ln <= nl; ln++ {
			qty := float64(1 + rng.Intn(50))
			price := qty * (900 + float64(rng.Intn(10000))/10)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := od.I + int64(1+rng.Intn(121))
			if err := db.Insert("lineitem", v(
				value.NewInt(orderkey),
				value.NewInt(int64(1+rng.Intn(maxInt(nPart, 1)))),
				value.NewInt(int64(1+rng.Intn(maxInt(nSupp, 1)))),
				value.NewInt(int64(ln)),
				value.NewFloat(qty),
				value.NewFloat(price),
				value.NewFloat(disc),
				value.NewFloat(tax),
				pick(returnflags),
				pick(linestatus),
				value.NewDate(ship),
				value.NewDate(ship+int64(rng.Intn(30))),
				value.NewDate(ship+int64(1+rng.Intn(30))),
				pick(shipmodes),
				pick([]string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}),
			)); err != nil {
				return err
			}
			total += price * (1 - disc) * (1 + tax)
		}
		if err := db.Insert("orders", v(
			value.NewInt(orderkey),
			value.NewInt(cust),
			pick([]string{"O", "F", "P"}),
			value.NewFloat(total),
			od,
			pick(priorities),
			value.NewInt(0),
		)); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
