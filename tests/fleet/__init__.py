"""Fleet-tier tests (router, quotas, rollout, supervisor)."""
