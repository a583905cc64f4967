package sql

import (
	"sync"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/value"
)

// fuzzDB is a tiny two-table database with an index, shared across
// fuzz executions: enough schema surface for the planner to resolve
// real column and table names from mutated queries.
var fuzzDB = sync.OnceValue(func() *engine.DB {
	db := engine.Open(64)
	col := func(name string, t value.Type) catalog.Column { return catalog.Column{Name: name, Type: t} }
	if _, err := db.CreateTable("items", catalog.NewSchema(
		col("id", value.Int), col("price", value.Float),
		col("name", value.Str), col("shipped", value.Date))); err != nil {
		panic(err)
	}
	if _, err := db.CreateTable("owners", catalog.NewSchema(
		col("oid", value.Int), col("id", value.Int), col("tag", value.Str))); err != nil {
		panic(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := db.Insert("items", []value.Value{
			value.NewInt(i), value.NewFloat(float64(i) * 1.5),
			value.NewStr("n"), value.NewDate(9000 + i)}); err != nil {
			panic(err)
		}
		if err := db.Insert("owners", []value.Value{
			value.NewInt(i % 7), value.NewInt(i), value.NewStr("t")}); err != nil {
			panic(err)
		}
	}
	if err := db.CreateIndex("items", "id", catalog.BTree, true); err != nil {
		panic(err)
	}
	return db
})

// FuzzCompile asserts the parse/plan boundary never panics: arbitrary
// query text must come back as a plan or an error, nothing else. The
// seed corpus covers every statement shape the grammar knows plus the
// classic trip-ups (unterminated strings, deep nesting, stray
// unicode, empty input).
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"select",
		"select 1",
		"select * from items",
		"select id, price from items where id = 3",
		"select id from items where id >= 1 and id <= 4 order by id desc limit 2",
		"select sum(price), count(*) from items where shipped < '1995-03-15'",
		"select name, sum(price) from items group by name order by 2",
		"select i.id from items i, owners o where i.id = o.id and o.tag = 't'",
		"select * from items where price * (1 - 0.05) > 10 or id <> 2",
		"select * from items where name like 'n%'",
		"select * from items where id in (1, 2, 3)",
		"select count(*) from items where not (id = 1)",
		"select * from nosuchtable",
		"select nosuchcol from items",
		"select * from items where",
		"select * from items where name = 'unterminated",
		"select ((((((((((id))))))))))+1 from items",
		"SELECT\t*\nFROM items;",
		"select * from items -- trailing comment",
		"select * from items where id = 9223372036854775807",
		"select * from items where id = -9223372036854775808",
		"select * from items where price = 1e309",
		"select 'héllo', * from items where name = '💥'",
		"\x00\xff\xfe select",
		"select * from items where id = 1 group by order by limit",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, query string) {
		c := executor.NewCtx(nil)
		cq, err := CompileQuery(db, c, query)
		if err == nil && (cq == nil || cq.Plan == nil) {
			t.Fatalf("CompileQuery(%q) returned neither plan nor error", query)
		}
	})
}
