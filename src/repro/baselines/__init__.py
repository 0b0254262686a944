"""Channel flushing: the prior-work baseline Cruz is compared with (§5.2)."""
