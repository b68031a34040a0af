package fault

// Lookup resolves a site name.
func (r *Registry) Lookup(site string) (Injector, bool) {
	inj, ok := r.sites[site]
	return inj, ok
}
