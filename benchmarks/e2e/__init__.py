"""The repo's one end-to-end benchmark; see README.md beside this file."""
