package core

// Result holds the window functions' output columns, in the original row
// order of the input table.
type Result struct {
	table *Table
}

// Column returns the output column produced under the given name.
func (r *Result) Column(name string) *Column { return r.table.Column(name) }

// Table returns all output columns as a table.
func (r *Result) Table() *Table { return r.table }

// outBuilder accumulates one function's results. Rows are written at their
// ORIGINAL row index (the evaluator knows the original index of every sorted
// position), so no separate scatter pass is needed. Writes target disjoint
// rows and are safe to issue concurrently.
type outBuilder struct {
	name   string
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool
}

func newOutBuilder(name string, kind Kind, n int) *outBuilder {
	b := &outBuilder{name: name, kind: kind, nulls: make([]bool, n)}
	switch kind {
	case Int64:
		b.ints = make([]int64, n)
	case Float64:
		b.floats = make([]float64, n)
	case String:
		b.strs = make([]string, n)
	case Bool:
		b.bools = make([]bool, n)
	}
	return b
}

func (b *outBuilder) setInt(row int, v int64)     { b.ints[row] = v }
func (b *outBuilder) setFloat(row int, v float64) { b.floats[row] = v }
func (b *outBuilder) setNull(row int)             { b.nulls[row] = true }

// copyFrom copies src's value at srcRow into the output at dstRow,
// preserving NULLs. src must have the builder's kind.
func (b *outBuilder) copyFrom(src *Column, srcRow, dstRow int) {
	if src.IsNull(srcRow) {
		b.nulls[dstRow] = true
		return
	}
	switch b.kind {
	case Int64:
		b.ints[dstRow] = src.Int64(srcRow)
	case Float64:
		b.floats[dstRow] = src.Float64(srcRow)
	case String:
		b.strs[dstRow] = src.StringAt(srcRow)
	case Bool:
		b.bools[dstRow] = src.Bool(srcRow)
	}
}

// column finalises the builder into a Column.
func (b *outBuilder) column() *Column {
	nulls := b.nulls
	any := false
	for _, v := range nulls {
		if v {
			any = true
			break
		}
	}
	if !any {
		nulls = nil
	}
	return &Column{name: b.name, kind: b.kind, ints: b.ints, floats: b.floats, strs: b.strs, bools: b.bools, nulls: nulls}
}
