"""Dataset, loss, AdamW and training loop of the weighting network."""
