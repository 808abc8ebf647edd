//! Per-tenant energy accounting: exact integer quotas, chunk-granular
//! enforcement, and the `name:quota[:policy]` CLI grammar.
//!
//! A tenant's ledger is the integer sum of the `quanta_total` fields of
//! every chunk record across all of its jobs — rebuilt exactly on restart
//! by re-reading the journals, because [`EnergyQuanta`] addition is
//! associative and lossless. There is no float drift to accumulate and no
//! separate ledger file to keep consistent: the journals *are* the ledger.

use crate::spec::OverBudget;
use enerj_hw::quanta::EnergyQuanta;

/// A tenant's configured quota and over-budget policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name (`[a-zA-Z0-9._-]{1,64}`).
    pub name: String,
    /// Lifetime energy quota in exact scaled quanta; `None` = unlimited.
    pub quota: Option<EnergyQuanta>,
    /// What happens to a running job when the tenant crosses its quota.
    pub over_budget: OverBudget,
}

impl TenantConfig {
    /// An unlimited tenant (the default for names never configured).
    pub(crate) fn unlimited(name: &str) -> TenantConfig {
        TenantConfig { name: name.to_owned(), quota: None, over_budget: OverBudget::Stop }
    }

    /// Parses the `campaignd --tenant` grammar: `name:quota[:policy]`,
    /// where `quota` is a non-negative integer or `unlimited` and
    /// `policy` is `stop` (default) or `degrade`.
    pub fn parse(arg: &str) -> Result<TenantConfig, String> {
        let mut parts = arg.splitn(3, ':');
        let name = parts.next().unwrap_or_default();
        if name.is_empty() {
            return Err(format!("--tenant `{arg}`: empty tenant name"));
        }
        let quota = match parts.next() {
            None => return Err(format!("--tenant `{arg}`: expected name:quota[:policy]")),
            Some("unlimited") => None,
            Some(q) => Some(EnergyQuanta::new(q.parse::<u128>().map_err(|_| {
                format!("--tenant `{arg}`: quota must be a non-negative integer or `unlimited`")
            })?)),
        };
        let over_budget = match parts.next() {
            None => OverBudget::Stop,
            Some(p) => OverBudget::parse(p).map_err(|e| format!("--tenant `{arg}`: {e}"))?,
        };
        Ok(TenantConfig { name: name.to_owned(), quota, over_budget })
    }
}

/// A tenant's live accounting state.
#[derive(Debug, Clone)]
pub(crate) struct TenantState {
    /// Configuration (quota + policy).
    pub config: TenantConfig,
    /// Exact energy committed so far across all of this tenant's jobs.
    pub spent: EnergyQuanta,
}

impl TenantState {
    /// Fresh state for `config` with nothing spent.
    pub(crate) fn new(config: TenantConfig) -> TenantState {
        TenantState { config, spent: EnergyQuanta::ZERO }
    }

    /// Whether admitting new work is pointless because the quota is
    /// already spent (admission-time check; enforcement during a run is
    /// chunk-granular and lives in the commit path).
    pub(crate) fn exhausted(&self) -> bool {
        matches!(self.config.quota, Some(q) if self.spent >= q)
    }

    /// Quanta still available under the quota (`None` = unlimited).
    pub(crate) fn remaining(&self) -> Option<EnergyQuanta> {
        self.config.quota.map(|q| q.saturating_sub(self.spent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tenant_grammar() {
        let t = TenantConfig::parse("acme:123456").expect("valid");
        assert_eq!(t.name, "acme");
        assert_eq!(t.quota, Some(EnergyQuanta::new(123456)));
        assert_eq!(t.over_budget, OverBudget::Stop);
        let t = TenantConfig::parse("lab:unlimited:degrade").expect("valid");
        assert!(t.quota.is_none());
        assert_eq!(t.over_budget, OverBudget::Degrade);
        let t = TenantConfig::parse("x:9:degrade").expect("valid");
        assert_eq!(t.over_budget, OverBudget::Degrade);
        for bad in [":", "noquota", "a:xyz", "a:1:retry", ":5"] {
            assert!(TenantConfig::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn quota_accounting_is_exact() {
        let mut s = TenantState::new(TenantConfig::parse("t:100").expect("valid"));
        assert!(!s.exhausted());
        s.spent += EnergyQuanta::new(100);
        assert!(s.exhausted(), "spent == quota leaves nothing to admit");
        assert_eq!(s.remaining(), Some(EnergyQuanta::ZERO));
        s.spent += EnergyQuanta::new(1);
        assert!(s.exhausted(), "a commit may overshoot the quota");
        assert_eq!(s.remaining(), Some(EnergyQuanta::ZERO));
        let unlimited = TenantState::new(TenantConfig::unlimited("u"));
        assert!(!unlimited.exhausted());
        assert_eq!(unlimited.remaining(), None);
    }
}
