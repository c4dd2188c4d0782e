package query

import (
	"testing"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	trades, _ := storage.NewSchema("trades", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
		{Name: "price", Kind: val.KindFloat, NotNull: true},
		{Name: "qty", Kind: val.KindInt, NotNull: true},
	}, "id")
	db.CreateTable(trades)
	syms, _ := storage.NewSchema("symbols", []storage.Column{
		{Name: "sym", Kind: val.KindString, NotNull: true},
		{Name: "sector", Kind: val.KindString},
	}, "sym")
	db.CreateTable(syms)

	rows := []struct {
		id    int
		sym   string
		price float64
		qty   int
	}{
		{1, "ACME", 10, 100},
		{2, "ACME", 12, 200},
		{3, "BETA", 5, 50},
		{4, "BETA", 7, 150},
		{5, "GAMA", 100, 10},
		{6, "ACME", 11, 300},
	}
	for _, r := range rows {
		if _, err := db.Insert("trades", map[string]val.Value{
			"id": val.Int(int64(r.id)), "sym": val.String(r.sym),
			"price": val.Float(r.price), "qty": val.Int(int64(r.qty)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range [][2]string{{"ACME", "industrials"}, {"BETA", "tech"}, {"GAMA", "energy"}} {
		db.Insert("symbols", map[string]val.Value{
			"sym": val.String(s[0]), "sector": val.String(s[1]),
		})
	}
	return db
}

func TestSelectAllColumns(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Columns) != 4 {
		t.Fatalf("result %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.ColIndex("price") != 2 {
		t.Errorf("ColIndex(price) = %d", res.ColIndex("price"))
	}
}

func TestWhereFilter(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").Where("price >= 10 AND sym = 'ACME'").Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestProjectionAndAlias(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").
		Where("id = 1").
		Select("sym", "price * qty AS notional").
		Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[1] != "notional" {
		t.Fatalf("columns = %v", res.Columns)
	}
	v, _ := res.Get(0, "notional")
	if !val.Equal(v, val.Float(1000)) {
		t.Errorf("notional = %v", v)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").
		Select("id", "price").
		OrderBy("price", Desc).
		Limit(2).
		Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, _ := res.Get(0, "price")
	if !val.Equal(first, val.Float(100)) {
		t.Errorf("top price = %v", first)
	}
	res2, _ := New("trades").Select("id").OrderBy("id", Asc).Offset(4).Run(db)
	if len(res2.Rows) != 2 {
		t.Errorf("offset rows = %d", len(res2.Rows))
	}
	v, _ := res2.Get(0, "id")
	if !val.Equal(v, val.Int(5)) {
		t.Errorf("first after offset = %v", v)
	}
	// Offset beyond result.
	res3, _ := New("trades").Offset(100).Run(db)
	if len(res3.Rows) != 0 {
		t.Errorf("big offset rows = %d", len(res3.Rows))
	}
	// Multi-key ordering with tie-break.
	res4, _ := New("trades").Select("sym", "price").
		OrderBy("sym", Asc).OrderBy("price", Desc).Run(db)
	s0, _ := res4.Get(0, "price")
	if !val.Equal(s0, val.Float(12)) {
		t.Errorf("ACME highest first = %v", s0)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").
		GroupBy("sym").
		Agg("n", Count, "").
		Agg("total_qty", Sum, "qty").
		Agg("avg_price", Avg, "price").
		Agg("min_price", Min, "price").
		Agg("max_price", Max, "price").
		OrderBy("sym", Asc).
		Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// ACME: 3 trades, qty 600, prices 10,12,11.
	if v, _ := res.Get(0, "n"); !val.Equal(v, val.Int(3)) {
		t.Errorf("ACME count = %v", v)
	}
	if v, _ := res.Get(0, "total_qty"); !val.Equal(v, val.Float(600)) {
		t.Errorf("ACME qty = %v", v)
	}
	if v, _ := res.Get(0, "avg_price"); !val.Equal(v, val.Float(11)) {
		t.Errorf("ACME avg = %v", v)
	}
	if v, _ := res.Get(0, "min_price"); !val.Equal(v, val.Float(10)) {
		t.Errorf("ACME min = %v", v)
	}
	if v, _ := res.Get(0, "max_price"); !val.Equal(v, val.Float(12)) {
		t.Errorf("ACME max = %v", v)
	}
}

func TestGlobalAggregateOverEmpty(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").Where("price > 10000").
		Agg("n", Count, "").Agg("s", Sum, "qty").Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if v, _ := res.Get(0, "n"); !val.Equal(v, val.Int(0)) {
		t.Errorf("count over empty = %v", v)
	}
	if v, _ := res.Get(0, "s"); !v.IsNull() {
		t.Errorf("sum over empty = %v, want null", v)
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	res, err := New("trades").
		Join("symbols", "sym", "sym").
		Where("sector = 'tech'").
		Select("id", "sym", "sector").
		OrderBy("id", Asc).
		Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("tech trades = %d, want 2", len(res.Rows))
	}
	if v, _ := res.Get(0, "sector"); !val.Equal(v, val.String("tech")) {
		t.Errorf("sector = %v", v)
	}
	// Default (unprojected) join output qualifies right columns.
	res2, err := New("trades").Join("symbols", "sym", "sym").Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ColIndex("symbols.sector") < 0 {
		t.Errorf("joined columns = %v", res2.Columns)
	}
	if len(res2.Rows) != 6 {
		t.Errorf("joined rows = %d", len(res2.Rows))
	}
	// Qualified reference in projection.
	res3, err := New("trades").Join("symbols", "sym", "sym").
		Select("symbols.sector AS sec").Where("id = 5").Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res3.Get(0, "sec"); !val.Equal(v, val.String("energy")) {
		t.Errorf("qualified sector = %v", v)
	}
}

func TestQueryErrors(t *testing.T) {
	db := testDB(t)
	if _, err := New("nope").Run(db); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := New("trades").Where("((").Run(db); err == nil {
		t.Error("bad where accepted")
	}
	if _, err := New("trades").Select("((").Run(db); err == nil {
		t.Error("bad select accepted")
	}
	if _, err := New("trades").OrderBy("nope", Asc).Run(db); err == nil {
		t.Error("order by missing column accepted")
	}
	if _, err := New("trades").Join("nope", "sym", "sym").Run(db); err == nil {
		t.Error("join with missing table accepted")
	}
	if _, err := New("trades").Join("symbols", "bogus", "sym").Run(db); err == nil {
		t.Error("join on missing left column accepted")
	}
	if _, err := New("trades").Join("symbols", "sym", "bogus").Run(db); err == nil {
		t.Error("join on missing right column accepted")
	}
	if _, err := New("trades").Where("sym > 5").Run(db); err == nil {
		t.Error("type error in where accepted")
	}
	if _, err := New("trades").Agg("x", Sum, "sym").Run(db); err == nil {
		t.Error("sum over strings accepted")
	}
}

func TestResultGetBounds(t *testing.T) {
	db := testDB(t)
	res, _ := New("trades").Run(db)
	if _, ok := res.Get(-1, "sym"); ok {
		t.Error("negative row accepted")
	}
	if _, ok := res.Get(0, "nope"); ok {
		t.Error("missing column accepted")
	}
}
