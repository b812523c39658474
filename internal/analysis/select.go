package analysis

import (
	"fmt"
	"sort"
	"strings"

	core "liberty/internal/core"
)

// Selection is a chosen subset of the registered passes, preserving
// execution order. lslint's -passes flag builds one via SelectPasses;
// the full pipeline is AllPasses.
type Selection struct {
	netlist []NetlistPass
	spec    []SpecPass
}

// AllPasses selects every registered pass.
func AllPasses() *Selection {
	return &Selection{netlist: netlistPasses, spec: specPasses}
}

// PassNames returns the sorted names and codes that SelectPasses accepts.
func PassNames() []string {
	seen := map[string]bool{}
	var names []string
	add := func(s string) {
		s = strings.ToLower(s)
		if !seen[s] {
			seen[s] = true
			names = append(names, s)
		}
	}
	for _, p := range netlistPasses {
		add(p.Name)
		add(p.Code)
	}
	for _, p := range specPasses {
		add(p.Name)
		add(p.Code)
	}
	sort.Strings(names)
	return names
}

// SelectPasses resolves pass names — slugs ("cycles") or codes
// ("LSE002"), case-insensitive — into a Selection. An unknown name is an
// error listing every valid name, so a typo fails loudly instead of
// silently linting with fewer checks.
func SelectPasses(names []string) (*Selection, error) {
	sel := &Selection{}
	for _, raw := range names {
		n := strings.ToLower(strings.TrimSpace(raw))
		if n == "" {
			continue
		}
		found := false
		for _, p := range netlistPasses {
			if n == strings.ToLower(p.Name) || n == strings.ToLower(p.Code) {
				sel.netlist = append(sel.netlist, p)
				found = true
			}
		}
		for _, p := range specPasses {
			if n == strings.ToLower(p.Name) || n == strings.ToLower(p.Code) {
				sel.spec = append(sel.spec, p)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown pass %q; valid passes: %s",
				raw, strings.Join(PassNames(), ", "))
		}
	}
	return sel, nil
}

// Lint runs the selected passes over one LSS specification with
// predefined top-level bindings — LintSourceWith restricted to the
// selection. Parse and build failures still become LSE000 diagnostics
// regardless of the selection: a spec that cannot build cannot be linted.
func (sel *Selection) Lint(name, src string, vars map[string]any, opts ...core.BuildOption) *Report {
	r := &Report{}
	f, err := parseFor(name, src)
	if err != nil {
		addErr(r, err)
		return finish(r, name, src)
	}
	for _, p := range sel.spec {
		p.Run(f, r)
	}
	sim, err := buildFor(f, vars, opts...)
	if err != nil {
		addErr(r, err)
		return finish(r, name, src)
	}
	for _, p := range sel.netlist {
		p.Run(sim, r)
	}
	return finish(r, name, src)
}
