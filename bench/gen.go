package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"joinview"
)

// The data set is the paper's Table 1 scaled down 100x: each loaded
// customer matches one order on custkey, orders span ten times as many
// custkey values as there are customers (the rest are "orphans" a newly
// inserted customer joins), and each order has four lineitems. It is
// generated here, not by internal/workload, so that a refactor there
// cannot shift the benchmark's load.
type scale struct {
	customers     int64
	orders        int64
	linesPerOrder int64
}

const (
	fullCustomers = 1500
	nations       = 25
	batchRows     = 256 // bulk-scan-chan statement size
	miniBatchRows = 16  // durable-rf2-chan's every-8th statement
)

// newScale sizes the data set; factor 1 is the benchmark's size, the
// smoke test runs at 0.01.
func newScale(factor float64) scale {
	c := int64(fullCustomers * factor)
	if c < 12 {
		c = 12
	}
	return scale{customers: c, orders: 10 * c, linesPerOrder: 4}
}

// orphans is how many loaded orders have no customer yet.
func (s scale) orphans() int64 { return s.orders - s.customers }

func customerRow(custkey, serial int64) joinview.Tuple {
	return joinview.Tuple{
		joinview.Int(custkey), joinview.Int(custkey % nations),
		joinview.Float(float64(serial%1000) + 0.5),
	}
}

func orderRow(orderkey, custkey, serial int64) joinview.Tuple {
	return joinview.Tuple{
		joinview.Int(orderkey), joinview.Int(custkey),
		joinview.Float(float64(serial%5000) + 0.25),
	}
}

func lineitemRow(orderkey, partkey int64) joinview.Tuple {
	return joinview.Tuple{
		joinview.Int(orderkey), joinview.Int(partkey), joinview.Int(partkey % 100),
		joinview.Float(float64(partkey%900) + 1), joinview.Float(float64(partkey%10) / 100),
	}
}

// baseRows materializes the loaded relations. lineitem is generated only
// for workloads that have a view over it.
func (s scale) baseRows(withLineitem bool) (customers, orders, lineitems []joinview.Tuple) {
	customers = make([]joinview.Tuple, 0, s.customers)
	for ck := int64(0); ck < s.customers; ck++ {
		customers = append(customers, customerRow(ck, ck))
	}
	orders = make([]joinview.Tuple, 0, s.orders)
	for ok := int64(0); ok < s.orders; ok++ {
		orders = append(orders, orderRow(ok, ok, ok))
	}
	if withLineitem {
		lineitems = make([]joinview.Tuple, 0, s.orders*s.linesPerOrder)
		part := int64(0)
		for ok := int64(0); ok < s.orders; ok++ {
			for l := int64(0); l < s.linesPerOrder; l++ {
				part++
				lineitems = append(lineitems, lineitemRow(ok, part))
			}
		}
	}
	return customers, orders, lineitems
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opUpdate
	opRead // an in-line view read by the writing client itself
)

// op is one generated operation. SQL-text workloads fill sql; typed-API
// workloads fill tuples / pred. keys and rows feed the oracle: the primary
// keys the statement touches and how many base rows it must apply.
type op struct {
	kind   opKind
	table  string
	sql    string
	tuples []joinview.Tuple
	pred   joinview.Expr
	keys   []int64
	price  float64 // opUpdate: the new totalprice
	rows   int
}

// oracle is the trivially correct record of what the acknowledged
// statements did: per table, the signed change in how many rows carry each
// primary key, relative to the loaded data.
type oracle struct {
	delta  map[string]map[int64]int
	prices map[int64]float64 // orders.totalprice set by acknowledged updates
}

func newOracle() *oracle {
	return &oracle{delta: map[string]map[int64]int{}, prices: map[int64]float64{}}
}

func (o *oracle) add(table string, key int64, n int) {
	m := o.delta[table]
	if m == nil {
		m = map[int64]int{}
		o.delta[table] = m
	}
	m[key] += n
}

// generator produces one writer's operation stream and keeps its oracle.
// next is deterministic in (workload, seed, session); ack records an
// acknowledged statement. A generator is used by one goroutine.
type generator interface {
	next() op
	ack(o *op)
	oracle() *oracle
}

// sqlBuf builds statement text without fmt's reflection.
type sqlBuf []byte

func (b *sqlBuf) s(v string) *sqlBuf  { *b = append(*b, v...); return b }
func (b *sqlBuf) i(v int64) *sqlBuf   { *b = strconv.AppendInt(*b, v, 10); return b }
func (b *sqlBuf) f(v float64) *sqlBuf { *b = strconv.AppendFloat(*b, v, 'f', 2, 64); return b }

func (b *sqlBuf) tuple(t joinview.Tuple) *sqlBuf {
	b.s("(")
	for i, v := range t {
		if i > 0 {
			b.s(", ")
		}
		if v.K == joinview.KindFloat {
			b.f(v.F)
		} else {
			b.i(v.I)
		}
	}
	return b.s(")")
}

func insertSQL(table string, tuples []joinview.Tuple) string {
	b := make(sqlBuf, 0, 48+32*len(tuples))
	b.s("insert into ").s(table).s(" values ")
	for i, t := range tuples {
		if i > 0 {
			b.s(", ")
		}
		b.tuple(t)
	}
	return string(b)
}

// pairGen is the trickle stream on one customer/orders table pair: it
// alternates a customer insert that joins exactly one loaded order (the
// next orphan custkey, wrapping over the orphan span) and an order insert
// that joins exactly one loaded customer. With batchEvery > 0 every
// batchEvery-th statement carries miniBatchRows rows instead of one; with
// readEvery > 0 every readEvery-th operation is an in-line view read.
type pairGen struct {
	sc         scale
	rng        *rand.Rand
	customer   string
	orders     string
	batchEvery int64
	readEvery  int64
	ops        int64 // operations generated, reads included
	n          int64 // statements generated
	nCust      int64
	nOrd       int64
	orc        *oracle
}

func newPairGen(sc scale, seed int64, suffix string, batchEvery, readEvery int64) *pairGen {
	return &pairGen{
		sc: sc, rng: rand.New(rand.NewSource(seed)),
		customer: "customer" + suffix, orders: "orders" + suffix,
		batchEvery: batchEvery, readEvery: readEvery, orc: newOracle(),
	}
}

func (g *pairGen) newCustomer() (joinview.Tuple, int64) {
	ck := g.sc.customers + g.nCust%g.sc.orphans()
	g.nCust++
	return customerRow(ck, g.rng.Int63n(1000)), ck
}

func (g *pairGen) newOrder() (joinview.Tuple, int64) {
	ok := g.sc.orders + g.nOrd
	g.nOrd++
	return orderRow(ok, g.rng.Int63n(g.sc.customers), g.rng.Int63n(5000)), ok
}

func (g *pairGen) next() op {
	g.ops++
	if g.readEvery > 0 && g.ops%g.readEvery == 0 {
		return op{kind: opRead}
	}
	rows, toCustomer := 1, g.n%2 == 0
	if g.batchEvery > 0 && g.n%g.batchEvery == g.batchEvery-1 {
		// batches take turns too, or they would all land on one table
		rows, toCustomer = miniBatchRows, (g.n/g.batchEvery)%2 == 0
	}
	g.n++
	o := op{kind: opInsert, rows: rows, tuples: make([]joinview.Tuple, rows), keys: make([]int64, rows)}
	if toCustomer {
		o.table = g.customer
		for i := range o.tuples {
			o.tuples[i], o.keys[i] = g.newCustomer()
		}
	} else {
		o.table = g.orders
		for i := range o.tuples {
			o.tuples[i], o.keys[i] = g.newOrder()
		}
	}
	o.sql = insertSQL(o.table, o.tuples)
	return o
}

func (g *pairGen) ack(o *op) {
	for _, k := range o.keys {
		g.orc.add(o.table, k, 1)
	}
}

func (g *pairGen) oracle() *oracle { return g.orc }

// keyedGen is keyed OLTP on customer/orders: 30 % customer inserts, 10 %
// order inserts, 30 % `delete from customer where custkey = k` of a live
// customer, 30 % `update orders set totalprice = p where orderkey = k` of
// a loaded order; every readEvery-th operation is an in-line view read.
// Customer inserts and deletes balance, so the table stays its size. The
// kinds follow a fixed ten-statement pattern and one update in ten hits an
// order that has a customer (which costs three view maintenances more):
// the seed picks keys and values, never the proportions, so that runs
// with different seeds do the same amount of work.
type keyedGen struct {
	sc        scale
	rng       *rand.Rand
	readEvery int64
	ops       int64 // operations generated, reads included
	n         int64 // statements generated
	nUpd      int64
	nCust     int64
	nOrd      int64
	live      []int64       // distinct live custkeys
	at        map[int64]int // custkey -> index in live
	count     map[int64]int // custkey -> live rows
	orc       *oracle
}

func newKeyedGen(sc scale, seed int64, readEvery int64) *keyedGen {
	g := &keyedGen{
		sc: sc, rng: rand.New(rand.NewSource(seed)), readEvery: readEvery,
		at: map[int64]int{}, count: map[int64]int{}, orc: newOracle(),
	}
	for ck := int64(0); ck < sc.customers; ck++ {
		g.addLive(ck)
	}
	return g
}

func (g *keyedGen) addLive(ck int64) {
	if g.count[ck] == 0 {
		g.at[ck] = len(g.live)
		g.live = append(g.live, ck)
	}
	g.count[ck]++
}

func (g *keyedGen) dropLive(ck int64) {
	i := g.at[ck]
	last := g.live[len(g.live)-1]
	g.live[i], g.at[last] = last, i
	g.live = g.live[:len(g.live)-1]
	delete(g.at, ck)
	delete(g.count, ck)
}

// keyedPattern is one cycle of statement kinds: c(ustomer insert),
// o(rder insert), d(elete customer), u(pdate order).
const keyedPattern = "cducdudcuo"

func (g *keyedGen) next() op {
	g.ops++
	if g.readEvery > 0 && g.ops%g.readEvery == 0 {
		return op{kind: opRead}
	}
	kind := keyedPattern[g.n%int64(len(keyedPattern))]
	g.n++
	switch {
	case kind == 'c' || (kind == 'd' && len(g.live) < 2):
		ck := g.sc.customers + g.nCust%g.sc.orphans()
		g.nCust++
		t := customerRow(ck, g.rng.Int63n(1000))
		return op{kind: opInsert, table: "customer", sql: insertSQL("customer", []joinview.Tuple{t}), keys: []int64{ck}, rows: 1}
	case kind == 'o':
		ok := g.sc.orders + g.nOrd
		g.nOrd++
		t := orderRow(ok, g.rng.Int63n(g.sc.customers), g.rng.Int63n(5000))
		return op{kind: opInsert, table: "orders", sql: insertSQL("orders", []joinview.Tuple{t}), keys: []int64{ok}, rows: 1}
	case kind == 'd':
		ck := g.live[g.rng.Intn(len(g.live))]
		b := make(sqlBuf, 0, 48)
		b.s("delete from customer where custkey = ").i(ck)
		return op{kind: opDelete, table: "customer", sql: string(b), keys: []int64{ck}, rows: g.count[ck]}
	default:
		// loaded order k < customers belongs to loaded customer k; the
		// rest are orphans unless an inserted customer claimed them
		ok := g.sc.customers + g.rng.Int63n(g.sc.orphans())
		if g.nUpd%10 == 9 {
			ok = g.rng.Int63n(g.sc.customers)
		}
		g.nUpd++
		price := float64(g.rng.Int63n(500000)) / 100
		b := make(sqlBuf, 0, 64)
		b.s("update orders set totalprice = ").f(price).s(" where orderkey = ").i(ok)
		return op{kind: opUpdate, table: "orders", sql: string(b), keys: []int64{ok}, price: price, rows: 1}
	}
}

// next already assumed the statement would be acknowledged when it picked
// later keys, so a failed statement desynchronizes live from the table;
// the run is then reported incorrect anyway.
func (g *keyedGen) ack(o *op) {
	switch o.kind {
	case opInsert:
		g.orc.add(o.table, o.keys[0], 1)
		if o.table == "customer" {
			g.addLive(o.keys[0])
		}
	case opDelete:
		g.orc.add(o.table, o.keys[0], -o.rows)
		g.dropLive(o.keys[0])
	case opUpdate:
		g.orc.prices[o.keys[0]] = o.price
	}
}

func (g *keyedGen) oracle() *oracle { return g.orc }

// bulkKeep is how many rounds of batches stay live before the oldest is
// deleted, which holds the tables at a steady size.
const bulkKeep = 4

// bulkLines is how many lineitems each inserted order gets, one batch per
// line: the data set's own four.
const bulkLines = 4

// bulkRound is the number of statements in one round.
const bulkRound = 1 + bulkLines + 2

// bulkGen cycles seven typed statements per round r: insert batchRows
// orders (each joining one loaded customer), insert their first to fourth
// lineitems (batchRows rows each), delete round r-bulkKeep's orders by an
// orderkey range, delete its bulkLines*batchRows lineitems by a partkey
// range. Four of the seven are the same kind of statement, so the median
// statement falls well inside that kind's latency cluster instead of on
// the edge between two kinds.
type bulkGen struct {
	sc   scale
	rng  *rand.Rand
	step int64 // 0..bulkRound-1 within the round
	r    int64 // round
	cur  []int64
	orc  *oracle
}

func newBulkGen(sc scale, seed int64) *bulkGen {
	return &bulkGen{sc: sc, rng: rand.New(rand.NewSource(seed)), orc: newOracle()}
}

func (g *bulkGen) orderLo(r int64) int64 { return g.sc.orders + r*batchRows }
func (g *bulkGen) partLo(r int64) int64 {
	return g.sc.orders*g.sc.linesPerOrder + 1 + r*bulkLines*batchRows
}

func keyRange(col string, lo, hi int64) joinview.Expr {
	return joinview.And(joinview.Gt(col, joinview.Int(lo-1)), joinview.Lt(col, joinview.Int(hi)))
}

func seq(lo, n int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = lo + int64(i)
	}
	return ks
}

func (g *bulkGen) next() op {
	step, r := g.step, g.r
	g.step++
	if g.step == bulkRound {
		g.step, g.r = 0, g.r+1
	}
	// priming rounds (run by set-up) have nothing old enough to delete
	if step > bulkLines && r < bulkKeep {
		return g.next()
	}
	switch {
	case step == 0:
		lo := g.orderLo(r)
		o := op{kind: opInsert, table: "orders", keys: seq(lo, batchRows), rows: batchRows}
		for _, ok := range o.keys {
			o.tuples = append(o.tuples, orderRow(ok, g.rng.Int63n(g.sc.customers), g.rng.Int63n(5000)))
		}
		g.cur = o.keys
		return o
	case step <= bulkLines:
		lo := g.partLo(r) + (step-1)*batchRows
		o := op{kind: opInsert, table: "lineitem", keys: seq(lo, batchRows), rows: batchRows}
		for i, pk := range o.keys {
			o.tuples = append(o.tuples, lineitemRow(g.cur[i], pk))
		}
		return o
	case step == bulkLines+1:
		lo := g.orderLo(r - bulkKeep)
		return op{kind: opDelete, table: "orders", pred: keyRange("orderkey", lo, lo+batchRows), keys: seq(lo, batchRows), rows: batchRows}
	default:
		lo, n := g.partLo(r-bulkKeep), int64(bulkLines*batchRows)
		return op{kind: opDelete, table: "lineitem", pred: keyRange("partkey", lo, lo+n), keys: seq(lo, n), rows: int(n)}
	}
}

func (g *bulkGen) ack(o *op) {
	n := 1
	if o.kind == opDelete {
		n = -1
	}
	for _, k := range o.keys {
		g.orc.add(o.table, k, n)
	}
}

func (g *bulkGen) oracle() *oracle { return g.orc }

// asyncReuse is how many custkeys at the top of the orphan span the
// cancelled inserts cycle through.
const asyncReuse = 1000

// asyncGen repeats three typed single-row statements: insert customer a,
// insert customer b, delete customer a — the delete reaches the queue
// while a's insert is still pending, so compaction cancels the pair. b
// walks the orphan span (one matching order each); a cycles through the
// asyncReuse keys at its top, each deleted again before it is reused.
type asyncGen struct {
	sc    scale
	rng   *rand.Rand
	n     int64
	reuse int64
	lastA int64
	orc   *oracle
}

func newAsyncGen(sc scale, seed int64) *asyncGen {
	reuse := int64(asyncReuse)
	if reuse > sc.orphans()/2 {
		reuse = sc.orphans() / 2
	}
	return &asyncGen{sc: sc, rng: rand.New(rand.NewSource(seed)), reuse: reuse, orc: newOracle()}
}

func (g *asyncGen) next() op {
	round, step := g.n/3, g.n%3
	g.n++
	switch step {
	case 0:
		g.lastA = g.sc.orders - 1 - round%g.reuse
		return op{kind: opInsert, table: "customer", tuples: []joinview.Tuple{customerRow(g.lastA, g.rng.Int63n(1000))}, keys: []int64{g.lastA}, rows: 1}
	case 1:
		ck := g.sc.customers + round%(g.sc.orphans()-g.reuse)
		return op{kind: opInsert, table: "customer", tuples: []joinview.Tuple{customerRow(ck, g.rng.Int63n(1000))}, keys: []int64{ck}, rows: 1}
	default:
		return op{kind: opDelete, table: "customer", pred: joinview.Eq("custkey", joinview.Int(g.lastA)), keys: []int64{g.lastA}, rows: 1}
	}
}

func (g *asyncGen) ack(o *op) {
	if o.kind == opDelete {
		g.orc.add(o.table, o.keys[0], -1)
	} else {
		g.orc.add(o.table, o.keys[0], 1)
	}
}

func (g *asyncGen) oracle() *oracle { return g.orc }

// streamHash fingerprints the first n operations of a generator: equal
// seeds must give equal hashes, different seeds different ones.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	var b sqlBuf
	for i := 0; i < n; i++ {
		o := g.next()
		g.ack(&o)
		b = b[:0]
		b.i(int64(o.kind)).s("|").s(o.table).s("|").s(o.sql).s("|")
		for _, t := range o.tuples {
			b.tuple(t)
		}
		for _, k := range o.keys {
			b.i(k).s(",")
		}
		b.f(o.price)
		h.Write(b)
	}
	return h.Sum64()
}
