"""`python -m ontokit`: the command-line interface."""

from .cli import main

main()
