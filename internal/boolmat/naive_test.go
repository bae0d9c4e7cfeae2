package boolmat

// The naive []bool implementation the packed kernels replaced, retained as a
// differential-testing reference: every word-parallel kernel must agree with
// it on all shapes, including non-word-aligned widths. It is deliberately the
// seed's original element-at-a-time code.

type naiveMatrix struct {
	rows, cols int
	data       []bool // row-major, len == rows*cols
}

func naiveNew(rows, cols int) *naiveMatrix {
	return &naiveMatrix{rows: rows, cols: cols, data: make([]bool, rows*cols)}
}

// naiveFrom converts a packed matrix to the reference representation.
func naiveFrom(m *Matrix) *naiveMatrix {
	n := naiveNew(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			n.data[i*n.cols+j] = m.Get(i, j)
		}
	}
	return n
}

// toPacked converts the reference matrix back via the public Set API.
func (n *naiveMatrix) toPacked() *Matrix {
	m := New(n.rows, n.cols)
	for i := 0; i < n.rows; i++ {
		for j := 0; j < n.cols; j++ {
			if n.data[i*n.cols+j] {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func (n *naiveMatrix) mul(o *naiveMatrix) *naiveMatrix {
	p := naiveNew(n.rows, o.cols)
	for i := 0; i < n.rows; i++ {
		for k := 0; k < n.cols; k++ {
			if !n.data[i*n.cols+k] {
				continue
			}
			for j := 0; j < o.cols; j++ {
				if o.data[k*o.cols+j] {
					p.data[i*p.cols+j] = true
				}
			}
		}
	}
	return p
}

func (n *naiveMatrix) or(o *naiveMatrix) *naiveMatrix {
	r := naiveNew(n.rows, n.cols)
	copy(r.data, n.data)
	for i, v := range o.data {
		if v {
			r.data[i] = true
		}
	}
	return r
}

func (n *naiveMatrix) transpose() *naiveMatrix {
	t := naiveNew(n.cols, n.rows)
	for i := 0; i < n.rows; i++ {
		for j := 0; j < n.cols; j++ {
			if n.data[i*n.cols+j] {
				t.data[j*t.cols+i] = true
			}
		}
	}
	return t
}

func (n *naiveMatrix) equal(o *naiveMatrix) bool {
	if n.rows != o.rows || n.cols != o.cols {
		return false
	}
	for i := range n.data {
		if n.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

func (n *naiveMatrix) isEmpty() bool {
	for _, v := range n.data {
		if v {
			return false
		}
	}
	return true
}

func (n *naiveMatrix) isFull() bool {
	for _, v := range n.data {
		if !v {
			return false
		}
	}
	return true
}

func (n *naiveMatrix) countTrue() int {
	c := 0
	for _, v := range n.data {
		if v {
			c++
		}
	}
	return c
}

// findPeriodQuadratic is the FindPeriod the hashed search replaced, kept as
// its reference: every new power is compared with every earlier one, so a
// period P costs O(P^2) comparisons.
func findPeriodQuadratic(x *Matrix) *PowerPeriod {
	var powers []*Matrix
	cur := x.Clone()
	for {
		for a, p := range powers {
			if p.Equal(cur) {
				return &PowerPeriod{Preperiod: a + 1, Period: len(powers) - a, Powers: powers}
			}
		}
		powers = append(powers, cur.Clone())
		cur = cur.Mul(x)
	}
}

// row returns row i as a 1 x cols reference row.
func (n *naiveMatrix) row(i int) *naiveMatrix {
	r := naiveNew(1, n.cols)
	copy(r.data, n.data[i*n.cols:(i+1)*n.cols])
	return r
}

// col returns column j as a 1 x rows reference row.
func (n *naiveMatrix) col(j int) *naiveMatrix {
	c := naiveNew(1, n.rows)
	for i := 0; i < n.rows; i++ {
		c.data[i] = n.data[i*n.cols+j]
	}
	return c
}

// mulVec returns n·v for a 1 x cols reference row v, as a 1 x rows row.
func (n *naiveMatrix) mulVec(v *naiveMatrix) *naiveMatrix {
	p := naiveNew(1, n.rows)
	for i := 0; i < n.rows; i++ {
		for k := 0; k < n.cols; k++ {
			if n.data[i*n.cols+k] && v.data[k] {
				p.data[i] = true
			}
		}
	}
	return p
}
