//! Recursive-descent parser for the mini-C kernel language.
//!
//! Grammar (informally):
//!
//! ```text
//! kernel   := decl* stmt*
//! decl     := type ident ('=' literal)? ';'
//!           | type ident ('[' int ']')+ ';'
//! stmt     := lvalue '=' expr ';'
//!           | 'for' '(' ident '=' expr ';' ident ('<'|'<=') expr ';'
//!                       ident '=' ident '+' expr ')' block-or-stmt
//!           | 'while' '(' expr ')' block-or-stmt
//!           | 'if' '(' expr ')' block-or-stmt ('else' block-or-stmt)?
//! expr     := or ; or := and ('||' and)* ; and := cmp ('&&' cmp)*
//! cmp      := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//! add      := mul (('+'|'-') mul)* ; mul := unary (('*'|'/'|'%') unary)*
//! unary    := ('-'|'!') unary | primary
//! primary  := literal | ident | ident '[' expr ']'+ | intrinsic '(' expr ')'
//!           | '(' expr ')'
//! ```

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::token::{lex, Tok, Token};
use std::collections::HashMap;

/// Parses a kernel from source text. Every identifier a statement names is
/// interned here, once, as a [`Sym`].
///
/// # Errors
///
/// Returns the first syntax error with its position.
pub fn parse(name: &str, source: &str) -> Result<Kernel, LangError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        syms: HashMap::new(),
        kernel: Kernel {
            name: name.to_string(),
            ..Default::default()
        },
    };
    p.kernel()?;
    Ok(p.kernel)
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    /// The symbol of every spelling seen so far.
    syms: HashMap<&'t str, Sym>,
    /// The kernel being built: its names, arena and declarations.
    kernel: Kernel,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &'t Tok {
        &self.tokens[self.pos].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn next(&mut self) -> &'t Token {
        let t = &self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok, what: &str) -> Result<Span, LangError> {
        if self.peek() == want {
            Ok(self.next().span)
        } else {
            Err(LangError::new(
                self.span(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<(&'t str, Span), LangError> {
        match self.peek() {
            Tok::Ident(name) => {
                let span = self.next().span;
                Ok((name, span))
            }
            other => Err(LangError::new(
                self.span(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// The symbol spelled `name`, interned on first sight.
    fn sym(&mut self, name: &'t str) -> Sym {
        let names = &mut self.kernel.names;
        *self.syms.entry(name).or_insert_with(|| {
            names.push(name.to_string());
            Sym(names.len() as u32 - 1)
        })
    }

    fn push(&mut self, e: Expr) -> ExprId {
        self.kernel.exprs.push(e)
    }

    fn kernel(&mut self) -> Result<(), LangError> {
        // Declarations: a run of `int`/`float` headed items.
        while matches!(self.peek(), Tok::KwInt | Tok::KwFloat) {
            let ty = match self.next().tok {
                Tok::KwInt => Type::Int,
                Tok::KwFloat => Type::Float,
                _ => unreachable!(),
            };
            let (ident, span) = self.ident()?;
            let sym = self.sym(ident);
            if *self.peek() == Tok::LBracket {
                let mut dims = Vec::new();
                while *self.peek() == Tok::LBracket {
                    self.next();
                    match &self.next().tok {
                        &Tok::Int(d) if d > 0 => dims.push(u32::try_from(d).map_err(|_| {
                            LangError::new(span, format!("array dimension {d} out of range"))
                        })?),
                        other => {
                            return Err(LangError::new(
                                span,
                                format!(
                                    "array dimension must be a positive integer, found {other:?}"
                                ),
                            ))
                        }
                    }
                    self.eat(&Tok::RBracket, "']'")?;
                }
                if dims
                    .iter()
                    .try_fold(1u32, |n, &d| n.checked_mul(d))
                    .is_none()
                {
                    return Err(LangError::new(
                        span,
                        format!("array '{ident}' has more than {} elements", u32::MAX),
                    ));
                }
                self.eat(&Tok::Semi, "';'")?;
                self.kernel.arrays.push(ArrayDef {
                    name: ident.to_string(),
                    sym,
                    ty,
                    dims,
                    span,
                });
            } else {
                let init = if *self.peek() == Tok::Assign {
                    self.next();
                    Some(self.literal()?)
                } else {
                    None
                };
                self.eat(&Tok::Semi, "';'")?;
                self.kernel.vars.push(VarDef {
                    name: ident.to_string(),
                    sym,
                    ty,
                    init,
                    span,
                });
            }
        }
        // Statements until EOF.
        while *self.peek() != Tok::Eof {
            let stmt = self.stmt()?;
            self.kernel.stmts.push(stmt);
        }
        Ok(())
    }

    fn literal(&mut self) -> Result<Literal, LangError> {
        let negative = if *self.peek() == Tok::Minus {
            self.next();
            true
        } else {
            false
        };
        match &self.next().tok {
            &Tok::Int(v) => Ok(Literal::Int(if negative { -v } else { v })),
            &Tok::Float(v) => Ok(Literal::Float(if negative { -v } else { v })),
            other => Err(LangError::new(
                self.span(),
                format!("expected literal, found {other:?}"),
            )),
        }
    }

    fn block_or_stmt(&mut self) -> Result<Vec<Stmt>, LangError> {
        if *self.peek() == Tok::LBrace {
            self.next();
            let mut stmts = Vec::new();
            while *self.peek() != Tok::RBrace {
                if *self.peek() == Tok::Eof {
                    return Err(LangError::new(self.span(), "unterminated block"));
                }
                stmts.push(self.stmt()?);
            }
            self.next();
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        match self.peek() {
            Tok::KwFor => self.for_stmt(),
            Tok::KwWhile => {
                self.next();
                self.eat(&Tok::LParen, "'('")?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen, "')'")?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwIf => {
                self.next();
                self.eat(&Tok::LParen, "'('")?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen, "')'")?;
                let then = self.block_or_stmt()?;
                let els = if *self.peek() == Tok::KwElse {
                    self.next();
                    self.block_or_stmt()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::Ident(_) => {
                let target = self.lvalue()?;
                self.eat(&Tok::Assign, "'='")?;
                let value = self.expr()?;
                self.eat(&Tok::Semi, "';'")?;
                Ok(Stmt::Assign { target, value })
            }
            other => Err(LangError::new(
                self.span(),
                format!("expected statement, found {other:?}"),
            )),
        }
    }

    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        self.next(); // for
        self.eat(&Tok::LParen, "'('")?;
        let (var, _) = self.ident()?;
        self.eat(&Tok::Assign, "'='")?;
        let init = self.expr()?;
        self.eat(&Tok::Semi, "';'")?;
        let (cvar, cspan) = self.ident()?;
        if cvar != var {
            return Err(LangError::new(
                cspan,
                format!("for-loop condition must test '{var}'"),
            ));
        }
        let inclusive = match &self.next().tok {
            Tok::Lt => false,
            Tok::Le => true,
            other => {
                return Err(LangError::new(
                    cspan,
                    format!("for-loop condition must be '<' or '<=', found {other:?}"),
                ))
            }
        };
        let bound = self.expr()?;
        self.eat(&Tok::Semi, "';'")?;
        let (ivar, ispan) = self.ident()?;
        if ivar != var {
            return Err(LangError::new(
                ispan,
                format!("for-loop increment must update '{var}'"),
            ));
        }
        self.eat(&Tok::Assign, "'='")?;
        let (ivar2, ispan2) = self.ident()?;
        if ivar2 != var {
            return Err(LangError::new(
                ispan2,
                format!("for-loop increment must have the form {var} = {var} + step"),
            ));
        }
        self.eat(&Tok::Plus, "'+'")?;
        let step = self.expr()?;
        self.eat(&Tok::RParen, "')'")?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::For {
            var: self.sym(var),
            init,
            bound,
            inclusive,
            step,
            body,
            span,
        })
    }

    /// `('[' expr ']')+`, as one list in the arena.
    fn indices(&mut self) -> Result<ExprList, LangError> {
        let mut indices = Vec::new();
        while *self.peek() == Tok::LBracket {
            self.next();
            indices.push(self.expr()?);
            self.eat(&Tok::RBracket, "']'")?;
        }
        Ok(self.kernel.exprs.push_list(&indices))
    }

    fn lvalue(&mut self) -> Result<LValue, LangError> {
        let (name, span) = self.ident()?;
        let sym = self.sym(name);
        if *self.peek() == Tok::LBracket {
            Ok(LValue::Index {
                array: sym,
                indices: self.indices()?,
                span,
            })
        } else {
            Ok(LValue::Var(sym, span))
        }
    }

    fn expr(&mut self) -> Result<ExprId, LangError> {
        self.or_expr()
    }

    fn bin(&mut self, op: BinKind, l: ExprId, r: ExprId, span: Span) -> ExprId {
        self.push(Expr::Bin { op, l, r, span })
    }

    fn or_expr(&mut self) -> Result<ExprId, LangError> {
        let mut l = self.and_expr()?;
        while *self.peek() == Tok::OrOr {
            let span = self.next().span;
            let r = self.and_expr()?;
            l = self.bin(BinKind::Or, l, r, span);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> Result<ExprId, LangError> {
        let mut l = self.cmp_expr()?;
        while *self.peek() == Tok::AndAnd {
            let span = self.next().span;
            let r = self.cmp_expr()?;
            l = self.bin(BinKind::And, l, r, span);
        }
        Ok(l)
    }

    fn cmp_expr(&mut self) -> Result<ExprId, LangError> {
        let l = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinKind::Eq,
            Tok::Ne => BinKind::Ne,
            Tok::Lt => BinKind::Lt,
            Tok::Le => BinKind::Le,
            Tok::Gt => BinKind::Gt,
            Tok::Ge => BinKind::Ge,
            _ => return Ok(l),
        };
        let span = self.next().span;
        let r = self.add_expr()?;
        Ok(self.bin(op, l, r, span))
    }

    fn add_expr(&mut self) -> Result<ExprId, LangError> {
        let mut l = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinKind::Add,
                Tok::Minus => BinKind::Sub,
                _ => return Ok(l),
            };
            let span = self.next().span;
            let r = self.mul_expr()?;
            l = self.bin(op, l, r, span);
        }
    }

    fn mul_expr(&mut self) -> Result<ExprId, LangError> {
        let mut l = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinKind::Mul,
                Tok::Slash => BinKind::Div,
                Tok::Percent => BinKind::Rem,
                _ => return Ok(l),
            };
            let span = self.next().span;
            let r = self.unary_expr()?;
            l = self.bin(op, l, r, span);
        }
    }

    fn unary_expr(&mut self) -> Result<ExprId, LangError> {
        let op = match self.peek() {
            Tok::Minus => UnKind::Neg,
            Tok::Bang => UnKind::Not,
            _ => return self.primary(),
        };
        let span = self.next().span;
        let e = self.unary_expr()?;
        Ok(self.push(Expr::Un { op, e, span }))
    }

    fn primary(&mut self) -> Result<ExprId, LangError> {
        let span = self.span();
        match self.peek() {
            &Tok::Int(v) => {
                self.next();
                Ok(self.push(Expr::Lit(Literal::Int(v), span)))
            }
            &Tok::Float(v) => {
                self.next();
                Ok(self.push(Expr::Lit(Literal::Float(v), span)))
            }
            Tok::LParen => {
                self.next();
                let e = self.expr()?;
                self.eat(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.next();
                if *self.peek() == Tok::LParen {
                    let f = Intrinsic::by_name(name).ok_or_else(|| {
                        LangError::new(span, format!("unknown intrinsic '{name}'"))
                    })?;
                    self.next();
                    let arg = self.expr()?;
                    self.eat(&Tok::RParen, "')'")?;
                    Ok(self.push(Expr::Call { f, arg, span }))
                } else if *self.peek() == Tok::LBracket {
                    let array = self.sym(name);
                    let indices = self.indices()?;
                    Ok(self.push(Expr::Index {
                        array,
                        indices,
                        span,
                    }))
                } else {
                    let sym = self.sym(name);
                    Ok(self.push(Expr::Var(sym, span)))
                }
            }
            other => Err(LangError::new(
                span,
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations() {
        let k = parse("t", "int x = 3; float y; float A[4][8];").unwrap();
        assert_eq!(k.vars.len(), 2);
        assert_eq!(k.vars[0].init, Some(Literal::Int(3)));
        assert_eq!(k.arrays[0].dims, vec![4, 8]);
    }

    #[test]
    fn parses_for_loop() {
        let k = parse(
            "t",
            "int i; float A[8]; for (i = 0; i < 8; i = i + 1) A[i] = 1.0;",
        )
        .unwrap();
        match &k.stmts[0] {
            Stmt::For {
                var,
                inclusive,
                body,
                ..
            } => {
                assert_eq!(k.names[var.index()], "i");
                assert!(!inclusive);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_while() {
        let k = parse(
            "t",
            "int x = 0; while (x < 10) { if (x == 5) x = x + 2; else x = x + 1; }",
        )
        .unwrap();
        assert_eq!(k.stmts.len(), 1);
    }

    #[test]
    fn precedence_mul_before_add() {
        let k = parse("t", "int x; x = 1 + 2 * 3;").unwrap();
        match &k.stmts[0] {
            Stmt::Assign { value, .. } => match k.exprs[*value] {
                Expr::Bin {
                    op: BinKind::Add,
                    r,
                    ..
                } => {
                    assert!(matches!(
                        k.exprs[r],
                        Expr::Bin {
                            op: BinKind::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("bad tree {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_intrinsics_and_negation() {
        let k = parse("t", "float y; y = sqrt(abs(-y));").unwrap();
        assert_eq!(k.stmts.len(), 1);
    }

    #[test]
    fn rejects_malformed_for() {
        assert!(parse("t", "int i; for (i = 0; j < 8; i = i + 1) i = 0;").is_err());
        assert!(parse("t", "int i; for (i = 0; i < 8; j = j + 1) i = 0;").is_err());
    }

    #[test]
    fn rejects_unknown_call() {
        assert!(parse("t", "float y; y = frobnicate(y);").is_err());
    }

    #[test]
    fn rejects_array_sizes_past_u32() {
        // 2^32 + 1 would truncate to a 1-element array.
        let e = parse("t", "int x;\nint A[4294967297];").unwrap_err();
        assert_eq!((e.span.line, e.span.col), (2, 5));
        assert_eq!(e.message, "array dimension 4294967297 out of range");
        // 2^16 · 2^16 would wrap the element count to 0.
        let e = parse("t", "int A[65536][65536];").unwrap_err();
        assert_eq!((e.span.line, e.span.col), (1, 5));
        assert_eq!(e.message, "array 'A' has more than 4294967295 elements");
        let k = parse("t", "int A[65536][65535];").unwrap();
        assert_eq!(k.arrays[0].dims, vec![65536, 65535]);
    }
}
