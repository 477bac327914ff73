package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides textual I/O in the two exchange formats of the
// paper's tool era: DIMACS CNF (the SAT-competition format the zChaff and
// BerkMin solvers of [11]–[13] consume) and OPB pseudo-Boolean format (the
// language of Barth's PB solvers [15] and of GOBLIN's constraint layer).

// maxParseVars bounds the variable count a parsed problem may declare or
// reference. Each solver variable costs ~100 bytes of bookkeeping, so the
// limit (~4M variables, ~400MB) rejects absurd headers and adversarial
// inputs before they exhaust memory, while staying far above any instance
// this solver could realistically search.
const maxParseVars = 1 << 22

// ParseDIMACS reads a DIMACS CNF problem and loads its clauses into a
// fresh solver. It returns the solver and the number of variables declared
// in the header.
func ParseDIMACS(r io.Reader) (*Solver, int, error) {
	s := New()
	n, err := ParseDIMACSInto(s, r)
	if err != nil {
		return nil, 0, err
	}
	return s, n, nil
}

// ParseDIMACSInto reads a DIMACS CNF problem into s, which must be a fresh
// solver with no variables allocated. The split from ParseDIMACS exists so
// callers can install hooks that only an empty solver accepts — notably a
// proof logger, which must observe every clause — before parsing begins.
// It returns the number of variables declared in the header.
func ParseDIMACSInto(s *Solver, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	declared := 0
	var vars []Var
	ensure := func(n int) {
		for len(vars) < n {
			vars = append(vars, s.NewVar())
		}
	}
	var clause []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return 0, fmt.Errorf("sat: malformed DIMACS header %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return 0, fmt.Errorf("sat: bad variable count: %v", err)
			}
			if n < 0 || n > maxParseVars {
				return 0, fmt.Errorf("sat: variable count %d out of range [0,%d]", n, maxParseVars)
			}
			declared = n
			ensure(n)
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return 0, fmt.Errorf("sat: bad literal %q", tok)
			}
			if v == 0 {
				if err := s.AddClause(clause...); err != nil {
					return 0, err
				}
				clause = clause[:0]
				continue
			}
			abs := v
			if abs < 0 {
				abs = -abs
			}
			// abs stays negative when v is the minimum int (negation
			// overflows), so the range check also rejects that case.
			if abs <= 0 || abs > maxParseVars {
				return 0, fmt.Errorf("sat: literal %d out of range [1,%d]", v, maxParseVars)
			}
			ensure(abs)
			clause = append(clause, MkLit(vars[abs-1], v < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(clause) > 0 {
		if err := s.AddClause(clause...); err != nil {
			return 0, err
		}
	}
	if declared == 0 {
		declared = len(vars)
	}
	return declared, nil
}

// ParseOPB reads a (linear, big-M-free) OPB pseudo-Boolean problem:
// lines of the form
//
//	+2 x1 -3 x2 >= 2 ;
//	 1 x3 +1 x4  = 1 ;
//
// Comments start with '*'. Equality constraints become a ≥ pair. The
// objective line ("min: …") is returned as terms for the caller to
// minimize (nil when absent).
func ParseOPB(r io.Reader) (*Solver, []PBTerm, error) {
	s := New()
	var vars []Var
	ensure := func(n int) {
		for len(vars) < n {
			vars = append(vars, s.NewVar())
		}
	}
	parseTerms := func(tokens []string) ([]PBTerm, error) {
		var terms []PBTerm
		i := 0
		for i+1 < len(tokens) {
			coef, err := strconv.ParseInt(tokens[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sat: bad coefficient %q", tokens[i])
			}
			name := tokens[i+1]
			neg := false
			if strings.HasPrefix(name, "~") {
				neg = true
				name = name[1:]
			}
			if !strings.HasPrefix(name, "x") {
				return nil, fmt.Errorf("sat: bad variable token %q", tokens[i+1])
			}
			idx, err := strconv.Atoi(name[1:])
			if err != nil || idx < 1 || idx > maxParseVars {
				return nil, fmt.Errorf("sat: bad variable index %q", name)
			}
			ensure(idx)
			terms = append(terms, PBTerm{Coef: coef, Lit: MkLit(vars[idx-1], neg)})
			i += 2
		}
		if i != len(tokens) {
			return nil, fmt.Errorf("sat: dangling token %q", tokens[i])
		}
		return terms, nil
	}

	var objective []PBTerm
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "min:") {
			terms, err := parseTerms(strings.Fields(strings.TrimPrefix(line, "min:")))
			if err != nil {
				return nil, nil, err
			}
			objective = terms
			continue
		}
		var op string
		var parts []string
		for _, cand := range []string{">=", "<=", "="} {
			if idx := strings.Index(line, cand); idx >= 0 {
				op = cand
				parts = []string{line[:idx], line[idx+len(cand):]}
				break
			}
		}
		if op == "" {
			return nil, nil, fmt.Errorf("sat: constraint without relation: %q", line)
		}
		terms, err := parseTerms(strings.Fields(parts[0]))
		if err != nil {
			return nil, nil, err
		}
		bound, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("sat: bad bound in %q", line)
		}
		switch op {
		case ">=":
			err = s.AddPB(terms, bound)
		case "<=":
			neg := make([]PBTerm, len(terms))
			for i, t := range terms {
				neg[i] = PBTerm{Coef: -t.Coef, Lit: t.Lit}
			}
			err = s.AddPB(neg, -bound)
		case "=":
			if err = s.AddPB(terms, bound); err == nil {
				neg := make([]PBTerm, len(terms))
				for i, t := range terms {
					neg[i] = PBTerm{Coef: -t.Coef, Lit: t.Lit}
				}
				err = s.AddPB(neg, -bound)
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return s, objective, nil
}

// WriteDIMACS dumps the solver's problem clauses in DIMACS CNF format.
// PB constraints are not expressible in CNF and are rejected.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	if n := s.pb.count(); n > 0 {
		return fmt.Errorf("sat: formula holds %d PB constraints; use WriteOPB", n)
	}
	bw := bufio.NewWriter(w)
	if !s.ok {
		// The formula is already contradictory at the root; the empty
		// clause expresses exactly that.
		fmt.Fprintf(bw, "p cnf %d 1\n0\n", s.NumVariables())
		return bw.Flush()
	}
	units := 0
	for _, l := range s.trail {
		if s.vars[l.Var()].level == 0 {
			units++
		}
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVariables(), len(s.clauses)+units)
	emit := func(lits []Lit) {
		for _, l := range lits {
			if l.Sign() {
				fmt.Fprintf(bw, "-%d ", l.Var())
			} else {
				fmt.Fprintf(bw, "%d ", l.Var())
			}
		}
		fmt.Fprintln(bw, "0")
	}
	for _, l := range s.trail {
		if s.vars[l.Var()].level == 0 {
			emit([]Lit{l})
		}
	}
	for _, c := range s.clauses {
		emit(s.ca.lits(c))
	}
	return bw.Flush()
}

// WriteOPB dumps the solver's problem (clauses and PB constraints) in OPB
// format.
func (s *Solver) WriteOPB(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if !s.ok {
		fmt.Fprintf(bw, "* #variable= 1 #constraint= 2\n+1 x1 >= 1 ;\n+1 ~x1 >= 1 ;\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "* #variable= %d #constraint= %d\n", s.NumVariables(), len(s.clauses)+s.pb.count())
	lit := func(l Lit) string {
		if l.Sign() {
			return fmt.Sprintf("~x%d", l.Var())
		}
		return fmt.Sprintf("x%d", l.Var())
	}
	for _, l := range s.trail {
		if s.vars[l.Var()].level == 0 {
			fmt.Fprintf(bw, "+1 %s >= 1 ;\n", lit(l))
		}
	}
	for _, c := range s.clauses {
		for _, l := range s.ca.lits(c) {
			fmt.Fprintf(bw, "+1 %s ", lit(l))
		}
		fmt.Fprintln(bw, ">= 1 ;")
	}
	for id := pbID(1); int(id) < len(s.pb.hdr); id++ {
		for _, t := range s.pb.body(id) {
			fmt.Fprintf(bw, "+%d %s ", t.Coef, lit(t.Lit))
		}
		fmt.Fprintf(bw, ">= %d ;\n", s.pb.hdr[id].bound)
	}
	return bw.Flush()
}
