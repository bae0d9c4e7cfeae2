package workflow

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/boolmat"
)

// The JSON document format lets specifications be stored, versioned and fed
// to the command-line tools. It mirrors the paper's model directly: modules
// with port counts, productions with occurrence lists and data edges, and a
// dependency assignment for the atomic modules written as rows of 0/1
// characters (row = input port, column = output port).
//
//	{
//	  "start": "S",
//	  "modules": [{"name": "S", "in": 2, "out": 2}, ...],
//	  "productions": [
//	    {"lhs": "S",
//	     "nodes": ["a", "b", "A"],
//	     "edges": [{"fromNode": 0, "fromPort": 0, "toNode": 2, "toPort": 0}]}
//	  ],
//	  "dependencies": {"a": ["1"], "b": ["11"]}
//	}

// specJSON is the document root.
type specJSON struct {
	Start        string              `json:"start"`
	Modules      []moduleJSON        `json:"modules"`
	Productions  []productionJSON    `json:"productions"`
	Dependencies map[string][]string `json:"dependencies"`
}

type moduleJSON struct {
	Name string `json:"name"`
	In   int    `json:"in"`
	Out  int    `json:"out"`
}

type productionJSON struct {
	LHS   string     `json:"lhs"`
	Nodes []string   `json:"nodes"`
	Edges []edgeJSON `json:"edges"`
}

type edgeJSON struct {
	FromNode int `json:"fromNode"`
	FromPort int `json:"fromPort"`
	ToNode   int `json:"toNode"`
	ToPort   int `json:"toPort"`
}

// MarshalJSON encodes the specification in the documented format.
func (s *Specification) MarshalJSON() ([]byte, error) {
	doc := specJSON{Start: s.Grammar.Start, Dependencies: map[string][]string{}}
	names := make([]string, 0, len(s.Grammar.Modules))
	for name := range s.Grammar.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.Grammar.Modules[name]
		doc.Modules = append(doc.Modules, moduleJSON{Name: m.Name, In: m.In, Out: m.Out})
	}
	for _, p := range s.Grammar.Productions {
		pj := productionJSON{LHS: p.LHS, Nodes: append([]string(nil), p.RHS.Nodes...)}
		for _, e := range p.RHS.Edges {
			pj.Edges = append(pj.Edges, edgeJSON{FromNode: e.FromNode, FromPort: e.FromPort, ToNode: e.ToNode, ToPort: e.ToPort})
		}
		doc.Productions = append(doc.Productions, pj)
	}
	for name, mat := range s.Deps {
		doc.Dependencies[name] = matrixToRows(mat)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// UnmarshalJSON decodes and validates a specification from the documented
// format.
func (s *Specification) UnmarshalJSON(data []byte) error {
	var doc specJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("workflow: parsing specification: %w", err)
	}
	g := &Grammar{Modules: map[string]Module{}, Start: doc.Start}
	for _, m := range doc.Modules {
		if _, dup := g.Modules[m.Name]; dup {
			return fmt.Errorf("workflow: module %q declared twice", m.Name)
		}
		g.Modules[m.Name] = Module{Name: m.Name, In: m.In, Out: m.Out}
	}
	for _, pj := range doc.Productions {
		w := &SimpleWorkflow{Nodes: append([]string(nil), pj.Nodes...)}
		for _, e := range pj.Edges {
			w.Edges = append(w.Edges, DataEdge{FromNode: e.FromNode, FromPort: e.FromPort, ToNode: e.ToNode, ToPort: e.ToPort})
		}
		norm, err := w.Normalize()
		if err != nil {
			return fmt.Errorf("workflow: production %q: %w", pj.LHS, err)
		}
		g.Productions = append(g.Productions, Production{LHS: pj.LHS, RHS: norm})
	}
	deps := DependencyAssignment{}
	for name, rows := range doc.Dependencies {
		m, ok := g.Modules[name]
		if !ok {
			return fmt.Errorf("workflow: dependencies given for undeclared module %q", name)
		}
		mat, err := rowsToMatrix(rows, m)
		if err != nil {
			return fmt.Errorf("workflow: dependencies of %q: %w", name, err)
		}
		deps[name] = mat
	}
	built, err := NewSpecification(g, deps)
	if err != nil {
		return err
	}
	*s = *built
	return nil
}

// WriteSpecification serializes a specification to a writer.
func WriteSpecification(w io.Writer, s *Specification) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadSpecification parses and validates a specification from a reader.
func ReadSpecification(r io.Reader) (*Specification, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &Specification{}
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return s, nil
}

func matrixToRows(m *boolmat.Matrix) []string {
	rows := make([]string, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		row := make([]byte, m.Cols())
		for j := 0; j < m.Cols(); j++ {
			if m.Get(i, j) {
				row[j] = '1'
			} else {
				row[j] = '0'
			}
		}
		rows[i] = string(row)
	}
	return rows
}

func rowsToMatrix(rows []string, m Module) (*boolmat.Matrix, error) {
	if len(rows) != m.In {
		return nil, fmt.Errorf("want %d rows (one per input port), got %d", m.In, len(rows))
	}
	// Every row is checked before the matrix is allocated, so its size is
	// backed by the document's own characters.
	for i, row := range rows {
		if len(row) != m.Out {
			return nil, fmt.Errorf("row %d has %d columns, want %d (one per output port)", i, len(row), m.Out)
		}
	}
	mat := boolmat.New(m.In, m.Out)
	for i, row := range rows {
		for j := 0; j < m.Out; j++ {
			switch row[j] {
			case '1':
				mat.Set(i, j, true)
			case '0':
				// false
			default:
				return nil, fmt.Errorf("row %d contains %q; rows must consist of 0 and 1 characters", i, row[j])
			}
		}
	}
	return mat, nil
}
