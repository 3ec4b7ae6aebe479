"""Desk-scale conditional diffusion outpainting.

Trains a small patch-token diffusion transformer to extrapolate the
surroundings of an image from its known center, conditioned on a spatial
"Center:...; Surrounding:..." keyword prompt fed through a three-branch
(center / total / surrounding) mask-gated cross-attention.
"""
