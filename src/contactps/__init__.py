"""Exact-arithmetic contact orders, positivity certificates, and
desingularization for real hypersurface germs."""
