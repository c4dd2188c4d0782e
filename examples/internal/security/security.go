// Package security implements the access-control operational
// characteristic (§2.2.b/c/d "security"): principals, actions and
// resource ACLs. The engine does not consult it: a caller puts a Guard
// in front of the operations it wants gated and records the decisions
// in an audit trail, as examples/chemsecure does around publishing and
// subscribing. The paper's ChemSecure/SensorNet use cases
// hinge on exactly this: information goes only to responders who are
// authorized.
package security

import (
	"fmt"
	"sync"
)

// Action names an operation on a resource.
type Action string

// Common actions.
const (
	ActEnqueue   Action = "enqueue"
	ActDequeue   Action = "dequeue"
	ActSubscribe Action = "subscribe"
	ActPublish   Action = "publish"
	ActRuleEdit  Action = "rule.edit"
	ActRead      Action = "read"
	ActAdmin     Action = "admin"
)

// Guard is an in-memory ACL: resource → action → allowed principals.
// A principal granted ActAdmin on a resource may do anything to it;
// grants on the wildcard resource "*" apply everywhere.
type Guard struct {
	mu sync.RWMutex
	// acl[resource][action][principal]
	acl map[string]map[Action]map[string]bool
	// DefaultAllow flips the policy to allow-unless-denied (useful for
	// development); production deployments keep deny-by-default.
	DefaultAllow bool
}

// NewGuard creates an empty deny-by-default guard.
func NewGuard() *Guard {
	return &Guard{acl: make(map[string]map[Action]map[string]bool)}
}

// Grant allows principal to perform action on resource.
func (g *Guard) Grant(principal string, action Action, resource string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	byAction, ok := g.acl[resource]
	if !ok {
		byAction = make(map[Action]map[string]bool)
		g.acl[resource] = byAction
	}
	byPrincipal, ok := byAction[action]
	if !ok {
		byPrincipal = make(map[string]bool)
		byAction[action] = byPrincipal
	}
	byPrincipal[principal] = true
}

// Revoke removes a grant.
func (g *Guard) Revoke(principal string, action Action, resource string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if byAction, ok := g.acl[resource]; ok {
		if byPrincipal, ok := byAction[action]; ok {
			delete(byPrincipal, principal)
		}
	}
}

// Allowed reports whether principal may perform action on resource.
func (g *Guard) Allowed(principal string, action Action, resource string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, res := range []string{resource, "*"} {
		byAction, ok := g.acl[res]
		if !ok {
			continue
		}
		if byAction[action][principal] || byAction[ActAdmin][principal] {
			return true
		}
	}
	return g.DefaultAllow
}

// PermissionError reports a denied action.
type PermissionError struct {
	Principal string
	Action    Action
	Resource  string
}

// Error implements error.
func (e *PermissionError) Error() string {
	return fmt.Sprintf("security: %q may not %s on %q", e.Principal, e.Action, e.Resource)
}

// Check returns a PermissionError if the action is not allowed.
func (g *Guard) Check(principal string, action Action, resource string) error {
	if !g.Allowed(principal, action, resource) {
		return &PermissionError{Principal: principal, Action: action, Resource: resource}
	}
	return nil
}
