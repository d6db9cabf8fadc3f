//! Recursive-descent parser for `.jir` modules.

use std::sync::Arc;

use crate::ast::{ClassDecl, MethodDecl, Module, Span, Stmt, StmtKind};
use crate::error::{LangError, Location};
use crate::lexer::{Token, TokenKind, Tokens};
use crate::symbols::Sym;

/// Parses a token stream into a [`Module`] that shares its symbol table.
///
/// # Errors
///
/// Returns [`LangError::Parse`] at the first unexpected token.
pub fn parse(tokens: &Tokens) -> Result<Module, LangError> {
    let mut parser = Parser {
        tokens,
        ..Parser::default()
    };
    parser.module.symbols = Arc::clone(&tokens.symbols);
    parser.module()?;
    Ok(parser.module)
}

#[derive(Default)]
struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    module: Module,
}

impl Parser<'_> {
    fn peek(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn location(&self) -> Location {
        self.tokens[self.pos].location
    }

    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error(&self, expected: &str) -> LangError {
        LangError::Parse {
            location: self.location(),
            message: format!(
                "expected {expected}, found {}",
                self.peek().describe(&self.module.symbols)
            ),
        }
    }

    /// Consumes `kind` if it is next.
    fn eat(&mut self, kind: TokenKind) -> bool {
        let found = self.peek() == kind;
        if found {
            self.advance();
        }
        found
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), LangError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Sym, LangError> {
        if let TokenKind::Ident(name) = self.peek() {
            self.advance();
            Ok(name)
        } else {
            Err(self.error(what))
        }
    }

    /// Parses `ident (, ident)*` into `module.names`, unless `close` is
    /// next.
    fn ident_list(&mut self, what: &str, close: TokenKind) -> Result<Span, LangError> {
        let start = self.module.names.len();
        if self.peek() != close {
            loop {
                let name = self.ident(what)?;
                self.module.names.push(name);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(Span::new(start, self.module.names.len()))
    }

    fn module(&mut self) -> Result<(), LangError> {
        loop {
            match self.peek() {
                TokenKind::KwClass => self.class_decl()?,
                TokenKind::KwEntry => self.entry_decl()?,
                TokenKind::Eof => return Ok(()),
                _ => return Err(self.error("`class`, `entry`, or end of input")),
            }
        }
    }

    fn class_decl(&mut self) -> Result<(), LangError> {
        self.expect(TokenKind::KwClass, "`class`")?;
        let name = self.ident("class name")?;
        let parent = if self.eat(TokenKind::Colon) {
            Some(self.ident("superclass name")?)
        } else {
            None
        };
        self.expect(TokenKind::LBrace, "`{`")?;
        let fields_start = self.module.fields.len();
        let methods_start = self.module.methods.len();
        loop {
            match self.peek() {
                TokenKind::KwField => {
                    self.advance();
                    let field = self.ident("field name")?;
                    self.module.fields.push((field, false));
                    self.expect(TokenKind::Semi, "`;`")?;
                }
                TokenKind::KwMethod => {
                    self.advance();
                    self.method_decl(false)?;
                }
                TokenKind::KwStatic => {
                    self.advance();
                    // `static field name;` declares a static field;
                    // `static name(...) {...}` declares a static method.
                    if self.eat(TokenKind::KwField) {
                        let field = self.ident("field name")?;
                        self.module.fields.push((field, true));
                        self.expect(TokenKind::Semi, "`;`")?;
                    } else {
                        self.method_decl(true)?;
                    }
                }
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                _ => return Err(self.error("`field`, `method`, `static`, or `}`")),
            }
        }
        self.module.classes.push(ClassDecl {
            name,
            parent,
            fields: Span::new(fields_start, self.module.fields.len()),
            methods: Span::new(methods_start, self.module.methods.len()),
        });
        Ok(())
    }

    fn method_decl(&mut self, is_static: bool) -> Result<(), LangError> {
        let location = self.location();
        let name = self.ident("method name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let params = self.ident_list("parameter name", TokenKind::RParen)?;
        self.expect(TokenKind::RParen, "`)`")?;
        // Optional `catch (T e, U f)` clause list.
        let catches_start = self.module.names.len();
        if self.eat(TokenKind::KwCatch) {
            self.expect(TokenKind::LParen, "`(`")?;
            loop {
                let ty = self.ident("catch type")?;
                let binder = self.ident("catch binder")?;
                self.module.names.extend([ty, binder]);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "`)`")?;
        }
        let catches = Span::new(catches_start, self.module.names.len());
        self.expect(TokenKind::LBrace, "`{`")?;
        let body_start = self.module.stmts.len();
        while self.peek() != TokenKind::RBrace {
            let stmt = self.stmt()?;
            self.module.stmts.push(stmt);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        self.module.methods.push(MethodDecl {
            name,
            params,
            is_static,
            catches,
            body: Span::new(body_start, self.module.stmts.len()),
            location,
        });
        Ok(())
    }

    fn entry_decl(&mut self) -> Result<(), LangError> {
        self.expect(TokenKind::KwEntry, "`entry`")?;
        let class = self.ident("class name")?;
        self.expect(TokenKind::Dot, "`.`")?;
        let method = self.ident("method name")?;
        self.module.entries.push((class, method));
        self.expect(TokenKind::Semi, "`;`")
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let location = self.location();
        let kind = match self.peek() {
            // return x;  |  throw x;
            keyword @ (TokenKind::KwReturn | TokenKind::KwThrow) => {
                self.advance();
                let var = self.ident("variable")?;
                if keyword == TokenKind::KwReturn {
                    StmtKind::Return { var }
                } else {
                    StmtKind::Throw { var }
                }
            }
            _ => {
                let first = self.ident("statement")?;
                match self.peek() {
                    // x = ...
                    TokenKind::Eq => {
                        self.advance();
                        self.assignment_rhs(first)?
                    }
                    // x.f = y;  |  recv.m(args);
                    TokenKind::Dot => self.member(None, first)?,
                    _ => return Err(self.error("`=` or `.` in statement")),
                }
            }
        };
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(Stmt { kind, location })
    }

    /// Parses the right-hand side of `to = ...`.
    fn assignment_rhs(&mut self, to: Sym) -> Result<StmtKind, LangError> {
        match self.peek() {
            // to = new C
            TokenKind::KwNew => {
                self.advance();
                let class = self.ident("class name")?;
                Ok(StmtKind::Alloc { to, class })
            }
            // to = (C) y
            TokenKind::LParen => {
                self.advance();
                let class = self.ident("cast target class")?;
                self.expect(TokenKind::RParen, "`)`")?;
                let from = self.ident("variable")?;
                Ok(StmtKind::Cast { to, class, from })
            }
            // to = y  |  to = y.f  |  to = recv.m(args)
            TokenKind::Ident(from) => {
                self.advance();
                if self.peek() == TokenKind::Dot {
                    self.member(Some(to), from)
                } else {
                    Ok(StmtKind::Move { to, from })
                }
            }
            _ => Err(self.error("`new`, `(`, or a variable")),
        }
    }

    /// Parses `.member` after `base`, then a call (assigned to `to`, if
    /// any), a load into `to`, or, without `to`, a store `= from`.
    fn member(&mut self, to: Option<Sym>, base: Sym) -> Result<StmtKind, LangError> {
        self.advance();
        let field = self.ident("field or method name")?;
        match (self.peek(), to) {
            (TokenKind::LParen, _) => {
                let args = self.call_args()?;
                let (recv, method) = (base, field);
                Ok(StmtKind::Call {
                    to,
                    recv,
                    method,
                    args,
                })
            }
            (_, Some(to)) => Ok(StmtKind::Load { to, base, field }),
            (TokenKind::Eq, None) => {
                self.advance();
                let from = self.ident("variable")?;
                Ok(StmtKind::Store { base, field, from })
            }
            _ => Err(self.error("`(` or `=` after member access")),
        }
    }

    fn call_args(&mut self) -> Result<Span, LangError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let args = self.ident_list("argument variable", TokenKind::RParen)?;
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Module, LangError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_full_module() {
        let m = parse_src(
            r#"
            class Object {}
            class Box : Object {
                field value;
                method set(v) { this.value = v; }
                method get() { r = this.value; return r; }
            }
            class Main : Object {
                static main() {
                    b = new Box;
                    p = new Object;
                    b.set(p);
                    r = b.get();
                    o = (Object) r;
                    q = o;
                    Main.helper();
                }
                static helper() {}
            }
            entry Main.main;
        "#,
        )
        .unwrap();
        assert_eq!(m.classes.len(), 3);
        assert_eq!(m.entries.len(), 1);
        let main = &m.classes[2].methods.of(&m.methods)[0];
        assert!(main.is_static);
        let body = main.body.of(&m.stmts);
        assert_eq!(body.len(), 7);
        assert!(matches!(body[0].kind, StmtKind::Alloc { .. }));
        assert!(matches!(body[2].kind, StmtKind::Call { to: None, .. }));
        assert!(matches!(body[3].kind, StmtKind::Call { to: Some(_), .. }));
        assert!(matches!(body[4].kind, StmtKind::Cast { .. }));
        assert!(matches!(body[5].kind, StmtKind::Move { .. }));
        assert!(matches!(body[6].kind, StmtKind::Call { .. }));
        let StmtKind::Call { recv, args, .. } = body[2].kind else {
            unreachable!()
        };
        assert_eq!(m.name(recv), "b");
        assert_eq!(args.of(&m.names).len(), 1);
    }

    #[test]
    fn fields_and_params_keep_their_own_spans() {
        let m = parse_src("class C { field a; method m(x, y) {} static field s; static n(z) {} }")
            .unwrap();
        let spell = |names: &[Sym]| -> Vec<String> {
            names.iter().map(|&s| m.name(s).to_owned()).collect()
        };
        let fields = m.classes[0].fields.of(&m.fields);
        let (names, statics): (Vec<Sym>, Vec<bool>) = fields.iter().copied().unzip();
        assert_eq!(spell(&names), ["a", "s"]);
        assert_eq!(statics, [false, true]);
        let methods = m.classes[0].methods.of(&m.methods);
        assert_eq!(spell(methods[0].params.of(&m.names)), ["x", "y"]);
        assert_eq!(spell(methods[1].params.of(&m.names)), ["z"]);
    }

    #[test]
    fn parses_field_access_statements() {
        let m = parse_src(
            r#"
            class C {
                field f;
                method m(x) {
                    this.f = x;
                    y = this.f;
                    return y;
                }
            }
        "#,
        )
        .unwrap();
        let body = m.methods[0].body.of(&m.stmts);
        assert!(matches!(body[0].kind, StmtKind::Store { .. }));
        assert!(matches!(body[1].kind, StmtKind::Load { .. }));
        assert!(matches!(body[2].kind, StmtKind::Return { .. }));
    }

    #[test]
    fn error_reports_location() {
        let err = parse_src("class C {\n  field ; \n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "location missing in: {msg}");
        assert!(msg.contains("field name"));
    }

    #[test]
    fn rejects_garbage_at_top_level() {
        assert!(parse_src("banana").is_err());
    }

    #[test]
    fn empty_module_is_fine() {
        let m = parse_src("").unwrap();
        assert!(m.classes.is_empty());
    }
}
