package policylang

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a rule in canonical form: one header line and indented
// clause lines. Parse(Print(r)) yields a rule equal to r.
func Print(r Rule) string {
	var b strings.Builder
	b.WriteString("policy ")
	b.WriteString(r.Name)
	if r.Priority != 0 {
		fmt.Fprintf(&b, " priority %d", r.Priority)
	}
	if r.Org != "" {
		fmt.Fprintf(&b, " org %s", r.Org)
	}
	b.WriteString(":\n    on ")
	b.WriteString(r.EventType)
	if r.When != nil {
		b.WriteString("\n    when ")
		b.WriteString(printExpr(r.When, false))
	}
	if r.Forbid {
		b.WriteString("\n    forbid ")
	} else {
		b.WriteString("\n    do ")
	}
	b.WriteString(printAction(r.Act))
	b.WriteByte('\n')
	return b.String()
}

// PrintAll renders rules separated by blank lines.
func PrintAll(rules []Rule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = Print(r)
	}
	return strings.Join(parts, "\n")
}

func printAction(a ActionSpec) string {
	var parts []string
	if a.Name != "" {
		parts = append(parts, a.Name)
	}
	if a.Target != "" {
		parts = append(parts, "target "+a.Target)
	}
	if a.Category != "" {
		parts = append(parts, "category "+a.Category)
	}
	if a.Outcome != "" {
		parts = append(parts, "outcome "+a.Outcome)
	}
	for _, p := range a.Params {
		parts = append(parts, fmt.Sprintf("param %s = %s", p.Key, quote(p.Value)))
	}
	for _, e := range a.Effects {
		op, v := "+=", e.Delta
		if v < 0 {
			op, v = "-=", -v
		}
		parts = append(parts, fmt.Sprintf("effect %s %s %s", e.Variable, op, formatNumber(v)))
	}
	if len(a.Obligations) > 0 {
		parts = append(parts, "obligation "+strings.Join(a.Obligations, ", "))
	}
	return strings.Join(parts, " ")
}

func printExpr(e Expr, nested bool) string {
	switch n := e.(type) {
	case TrueExpr:
		return "true"
	case *CmpExpr:
		return fmt.Sprintf("%s %s %s", n.Quantity, n.Op, formatNumber(n.Value))
	case *LabelExpr:
		return fmt.Sprintf("%s is %s", n.Label, quote(n.Value))
	case *NotExpr:
		return "not (" + printExpr(n.Operand, false) + ")"
	case *BinaryExpr:
		s := printExpr(n.Left, true) + " " + n.Op.String() + " " + printExpr(n.Right, true)
		if nested {
			return "(" + s + ")"
		}
		return s
	default:
		return "?"
	}
}

// literalEscaper escapes a DSL string literal's body. The lexer reads a
// backslash as "take the next byte literally", so only the quote, the
// backslash and a newline (which would otherwise end the literal) are
// escaped; Go's %q escapes such as \x.. or \t would read back as other
// text.
var literalEscaper = strings.NewReplacer(`"`, `\"`, `\`, `\\`, "\n", "\\\n")

func quote(s string) string { return `"` + literalEscaper.Replace(s) + `"` }

func formatNumber(v float64) string {
	if v < 0 {
		return "-" + strconv.FormatFloat(-v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}
