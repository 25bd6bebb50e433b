"""The byte-identity check's manifest, thinned copies and regeneration script."""
