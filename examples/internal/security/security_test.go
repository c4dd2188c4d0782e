package security

import (
	"errors"
	"testing"
)

func TestDenyByDefault(t *testing.T) {
	g := NewGuard()
	if g.Allowed("alice", ActEnqueue, "q_in") {
		t.Error("ungrunted action allowed")
	}
	err := g.Check("alice", ActEnqueue, "q_in")
	var pe *PermissionError
	if !errors.As(err, &pe) {
		t.Fatalf("Check error = %v", err)
	}
	if pe.Principal != "alice" || pe.Action != ActEnqueue || pe.Resource != "q_in" {
		t.Errorf("error fields = %+v", pe)
	}
}

func TestGrantRevoke(t *testing.T) {
	g := NewGuard()
	g.Grant("alice", ActEnqueue, "q_in")
	if !g.Allowed("alice", ActEnqueue, "q_in") {
		t.Error("granted action denied")
	}
	if g.Allowed("alice", ActDequeue, "q_in") {
		t.Error("different action allowed")
	}
	if g.Allowed("alice", ActEnqueue, "q_other") {
		t.Error("different resource allowed")
	}
	if g.Allowed("bob", ActEnqueue, "q_in") {
		t.Error("different principal allowed")
	}
	g.Revoke("alice", ActEnqueue, "q_in")
	if g.Allowed("alice", ActEnqueue, "q_in") {
		t.Error("revoked action allowed")
	}
	// Revoking something never granted is a no-op.
	g.Revoke("carol", ActRead, "nothing")
}

func TestAdminImpliesAll(t *testing.T) {
	g := NewGuard()
	g.Grant("root", ActAdmin, "q_in")
	for _, a := range []Action{ActEnqueue, ActDequeue, ActRead, ActRuleEdit} {
		if !g.Allowed("root", a, "q_in") {
			t.Errorf("admin denied %s", a)
		}
	}
	if g.Allowed("root", ActEnqueue, "elsewhere") {
		t.Error("admin scope leaked to other resources")
	}
}

func TestWildcardResource(t *testing.T) {
	g := NewGuard()
	g.Grant("ops", ActRead, "*")
	if !g.Allowed("ops", ActRead, "anything") {
		t.Error("wildcard grant not applied")
	}
	g.Grant("super", ActAdmin, "*")
	if !g.Allowed("super", ActRuleEdit, "rules") {
		t.Error("wildcard admin not applied")
	}
}

func TestDefaultAllowMode(t *testing.T) {
	g := NewGuard()
	g.DefaultAllow = true
	if !g.Allowed("anyone", ActEnqueue, "anywhere") {
		t.Error("default-allow denied")
	}
	if err := g.Check("anyone", ActEnqueue, "anywhere"); err != nil {
		t.Errorf("Check in default-allow: %v", err)
	}
}
