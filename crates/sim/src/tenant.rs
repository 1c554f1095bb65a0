//! Tenants and resource quotas (paper §5.1).
//!
//! Shared clusters partition capacity among tenants; guaranteed jobs draw
//! on their tenant's quota while best-effort jobs do not. The multi-tenant
//! trace of §7.3 uses two tenants: Tenant-A with a 64-GPU quota (all jobs
//! guaranteed) and Tenant-B with none (all jobs best-effort).

use rubick_model::Resources;
use std::fmt;

/// A tenant identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TenantId(pub String);

impl TenantId {
    /// Creates a tenant id from a name.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            write!(f, "(default)")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId(s.to_string())
    }
}

/// A tenant with a resource quota.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant identity.
    pub id: TenantId,
    /// The quota available to this tenant's guaranteed jobs.
    pub quota: Resources,
}

impl Tenant {
    /// Creates a tenant.
    pub fn new(id: impl Into<TenantId>, quota: Resources) -> Self {
        Tenant {
            id: id.into(),
            quota,
        }
    }

    /// The §7.3 multi-tenant setup: Tenant-A holding the whole 64-GPU
    /// cluster quota, Tenant-B with no quota.
    pub fn paper_mt_pair() -> Vec<Tenant> {
        vec![
            Tenant::new("tenant-a", Resources::new(64, 768, 12_800.0)),
            Tenant::new("tenant-b", Resources::zero()),
        ]
    }
}

impl From<&str> for Tenant {
    /// A tenant with an unlimited-for-practical-purposes quota, convenient
    /// for single-tenant experiments.
    fn from(name: &str) -> Self {
        Tenant::new(
            name,
            Resources::new(u32::MAX / 2, u32::MAX / 2, f64::MAX / 2.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_default_tenant() {
        assert_eq!(TenantId::default().to_string(), "(default)");
        assert_eq!(TenantId::new("team-x").to_string(), "team-x");
    }

    #[test]
    fn paper_pair_shapes() {
        let pair = Tenant::paper_mt_pair();
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].quota.gpus, 64);
        assert!(pair[1].quota.is_zero());
    }
}
